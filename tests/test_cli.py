import pytest

from symrich.cli import EXIT_CONFIG, EXIT_INSUFFICIENT_PREFIX, EXIT_REFUTED_INVARIANT, main

TM_CONFIG = """\
alphabet: "01"
word:
  kind: digit-sum
  base: 2
  modulus: 2
group:
  - kind: antimorphism
    map: ["0 -> 0", "1 -> 1"]
  - kind: antimorphism
    map: ["0 -> 1", "1 -> 0"]
analysis:
  length: 600
  n_max: 10
"""

FIB_CONFIG = """\
alphabet: "01"
word:
  kind: morphic
  seed: "0"
  rules: ["0 -> 01", "1 -> 0"]
group:
  - kind: antimorphism
    map: ["0 -> 0", "1 -> 1"]
analysis:
  length: 400
  n_max: 10
"""


@pytest.fixture
def tm_config(tmp_path):
    path = tmp_path / "tm.yaml"
    path.write_text(TM_CONFIG)
    return str(path)


@pytest.fixture
def fib_config(tmp_path):
    path = tmp_path / "fib.yaml"
    path.write_text(FIB_CONFIG)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_word(self, capsys, fib_config):
        code, out, _ = run(capsys, "--config", fib_config, "--length", "10", "word")
        assert code == 0 and out.strip() == "0100101001"

    def test_group(self, capsys, tm_config):
        code, out, _ = run(capsys, "--config", tm_config, "group")
        assert code == 0
        assert "order 4" in out and "involutively generated: True" in out

    def test_complexity_csv(self, capsys, tm_config):
        code, out, _ = run(capsys, "--config", tm_config, "complexity")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,C,dC,d2C,P[a:01],P[a:10]"
        assert lines[1].startswith("0,1,1,")

    def test_defect_csv(self, capsys, tm_config):
        code, out, _ = run(capsys, "--config", tm_config, "defect")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,pal[a:01],pal[a:10],g_lps,D_G,lacuna"
        assert lines[11] == "10,9,8,100110,0,0"

    def test_returns(self, capsys, tm_config):
        code, out, _ = run(capsys, "--config", tm_config, "returns", "011")
        assert code == 0
        assert "[001]" in out
        listed = {line.strip() for line in out.strip().split("\n")[1:]}
        assert {"0110", "1001", "0011", "1100"} <= listed

    def test_lps(self, capsys, tm_config):
        code, out, _ = run(capsys, "--config", tm_config, "lps", "11")
        assert code == 0 and out.strip() == "001100"

    def test_graph_rauzy(self, capsys, tm_config):
        code, out, _ = run(capsys, "--config", tm_config, "graph", "rauzy", "--n", "3")
        assert code == 0
        assert out.count("->") == 10

    def test_graph_undirected(self, capsys, tm_config):
        code, out, _ = run(capsys, "--config", tm_config, "graph", "sym-undirected", "--n", "3")
        assert code == 0
        assert out.count("--") == 4

    def test_verify_rich(self, capsys, tm_config):
        code, out, _ = run(capsys, "--config", tm_config, "verify")
        assert code == 0
        assert "overall: rich-up-to-nmax" in out

    def test_verify_refuted_still_succeeds(self, capsys, fib_config, tmp_path):
        refut = tmp_path / "tm_reversal.yaml"
        refut.write_text(TM_CONFIG.replace(
            '  - kind: antimorphism\n    map: ["0 -> 1", "1 -> 0"]\n', ""))
        code, out, _ = run(capsys, "--config", str(refut), "verify")
        assert code == 0
        assert "overall: refuted" in out

    def test_out_file(self, capsys, tm_config, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = run(capsys, "--config", tm_config, "--out", str(target), "complexity")
        assert code == 0
        assert target.read_text().startswith("n,C,dC,d2C")


class TestExitCodes:
    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "word")
        assert code == EXIT_CONFIG and "config" in err

    def test_bad_yaml(self, capsys, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("alphabet: [")
        code, _, err = run(capsys, "--config", str(path), "word")
        assert code == EXIT_CONFIG

    def test_format_flag_is_gone(self, capsys, tm_config):
        with pytest.raises(SystemExit) as exc:
            main(["--config", tm_config, "--format", "csv", "verify"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    @pytest.mark.parametrize("field, old, new", [
        ("analysis.length", "length: 600", "length: abc"),
        ("analysis.n_max", "n_max: 10", "n_max: ten"),
        ("analysis.threshold", "n_max: 10", "n_max: 10\n  threshold: [1]"),
        ("word.base", "base: 2", "base: x"),
        ("word.modulus", "modulus: 2", "modulus: two"),
    ])
    def test_non_integer_field(self, capsys, tmp_path, field, old, new):
        path = tmp_path / "bad_int.yaml"
        path.write_text(TM_CONFIG.replace(old, new))
        code, out, err = run(capsys, "--config", str(path), "word")
        assert code == EXIT_CONFIG and field in err and out == ""

    @pytest.mark.parametrize("field, old, new", [
        ("analysis.length", "length: 600", "length: 600.5"),
        ("analysis.length", "length: 600", "length: .inf"),
        ("analysis.n_max", "n_max: 10", "n_max: 9.99"),
        ("analysis.threshold", "n_max: 10", "n_max: 10\n  threshold: 1.5"),
        ("word.base", "base: 2", "base: 2.5"),
        ("word.modulus", "modulus: 2", "modulus: 2.5"),
    ])
    def test_non_integral_number(self, capsys, tmp_path, field, old, new):
        path = tmp_path / "bad_number.yaml"
        path.write_text(TM_CONFIG.replace(old, new))
        code, out, err = run(capsys, "--config", str(path), "word")
        assert code == EXIT_CONFIG and field in err and out == ""

    def test_integral_float_reads_as_integer(self, capsys, tm_config, tmp_path):
        path = tmp_path / "float_int.yaml"
        path.write_text(TM_CONFIG.replace("length: 600", "length: 600.0").replace("modulus: 2", "modulus: 2.0"))
        assert run(capsys, "--config", str(path), "word") == run(capsys, "--config", tm_config, "word")

    def test_dual_defect_disagreement(self, capsys, tm_config, corrupted_defect_head):
        code, out, err = run(capsys, "--config", tm_config, "verify")
        assert code == EXIT_REFUTED_INVARIANT and out == ""
        assert "violated invariant: incremental defect profile disagrees" in err

    def test_unwritable_out_path(self, capsys, tm_config, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, out, err = run(capsys, "--config", tm_config, "--out", str(target), "complexity")
        assert code == EXIT_CONFIG and str(target) in err and out == ""

    def test_bad_generator_map(self, capsys, tmp_path):
        path = tmp_path / "bad_map.yaml"
        path.write_text(TM_CONFIG.replace('"0 -> 1", "1 -> 0"', '"0 -> 0", "1 -> 0"'))
        code, _, err = run(capsys, "--config", str(path), "word")
        assert code == EXIT_CONFIG and "bijection" in err

    def test_insufficient_prefix(self, capsys, tmp_path):
        path = tmp_path / "short.yaml"
        path.write_text(
            'alphabet: "01"\n'
            "word:\n  kind: literal\n  word: \"01101001100101101001011001101001\"\n"
            "group:\n  - kind: antimorphism\n    map: [\"0 -> 0\", \"1 -> 1\"]\n"
            "analysis:\n  length: 32\n  n_max: 30\n"
        )
        code, _, err = run(capsys, "--config", str(path), "verify")
        assert code == EXIT_INSUFFICIENT_PREFIX

    def test_length_bound_for_indexing(self, capsys, tm_config):
        code, _, err = run(capsys, "--config", tm_config, "--length", "8", "complexity")
        assert code == EXIT_CONFIG

    CONFIG_COMMANDS = [
        ["word"], ["group"], ["complexity"], ["defect"], ["returns", "010"], ["lps", "11"],
        ["graph", "rauzy", "--n", "3"], ["verify"],
    ]

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize("flags, named", [
        (["--nmax", "-1"], "--nmax"),
        (["--length", "-2"], "--length"),
        (["--nmax", "-5", "--length", "-2"], "--length"),
    ])
    def test_negative_size_flag(self, capsys, tm_config, command, flags, named):
        code, out, err = run(capsys, "--config", tm_config, *flags, *command)
        assert code == EXIT_CONFIG and named in err and out == ""

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize("field, old, new", [
        ("analysis.length", "length: 600", "length: -600"),
        ("analysis.n_max", "n_max: 10", "n_max: -1"),
    ])
    def test_negative_size_field(self, capsys, tmp_path, command, field, old, new):
        path = tmp_path / "negative.yaml"
        path.write_text(TM_CONFIG.replace(old, new))
        code, out, err = run(capsys, "--config", str(path), *command)
        assert code == EXIT_CONFIG and field in err and out == ""

    @pytest.mark.parametrize("command, named", [
        (["lps", "-3"], "prefix_length"),
        (["graph", "rauzy", "--n", "-1"], "--n"),
    ])
    def test_negative_command_argument(self, capsys, tm_config, command, named):
        code, out, err = run(capsys, "--config", tm_config, *command)
        assert code == EXIT_CONFIG and named in err and out == ""

    @pytest.mark.parametrize("argv, code, message", [
        (["returns", ""], EXIT_CONFIG, "return words are only defined for nonempty factors"),
        (["--length", "5", "returns", "010110"], EXIT_CONFIG, "length 6 cannot occur in text of length 5"),
        (["--length", "10", "repro", "ex6"], EXIT_INSUFFICIENT_PREFIX, "length 10 cannot support"),
        (["--length", "31", "repro", "ex6"], EXIT_INSUFFICIENT_PREFIX, "length 31 cannot support"),
        (["--length", "5", "--nmax", "5", "repro", "subgroups"], EXIT_INSUFFICIENT_PREFIX, "length 5 "),
        (["--length", "21", "repro", "subgroups"], EXIT_INSUFFICIENT_PREFIX, "length 21 cannot support"),
        (["--length", "1", "repro", "ex8"], EXIT_INSUFFICIENT_PREFIX, "length 1 cannot support"),
    ])
    def test_input_too_short(self, capsys, tm_config, argv, code, message):
        result = run(capsys, "--config", tm_config, *argv)
        assert result[:2] == (code, "") and message in result[2]

    @pytest.mark.parametrize("flag, value", [
        ("--nmax", "-1"), ("--nmax", "0"), ("--length", "0"), ("--length", "-5"),
    ])
    @pytest.mark.parametrize("preset", ["ex8", "ex6", "subgroups"])
    def test_repro_size_below_one(self, capsys, preset, flag, value):
        code, out, err = run(capsys, flag, value, "repro", preset)
        assert code == EXIT_CONFIG and flag in err and out == ""


class TestRepro:
    def test_table1_golden_determinism(self, capsys):
        code1, out1, _ = run(capsys, "repro", "table1")
        code2, out2, _ = run(capsys, "repro", "table1")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.split("\n")[11] == "10,9,8,100110,0,0"
        assert out1.split("\n")[17] == "16,15,13,0110100110010110,0,0"

    def test_fig1_contains_both_graph_forms(self, capsys):
        code, out, _ = run(capsys, "repro", "fig1")
        assert code == 0
        assert "digraph" in out and "\ngraph" in out
        assert out.count('"010010"') + out.count('"[010010]"') == 2

    def test_fig5_determinism(self, capsys):
        _, out1, _ = run(capsys, "repro", "fig5")
        _, out2, _ = run(capsys, "repro", "fig5")
        assert out1 == out2
        assert out1.count("--") == 4

    def test_fig6_has_cycle_shape(self, capsys):
        code, out, _ = run(capsys, "repro", "fig6")
        assert code == 0
        assert out.count("--") == 6  # 4 connecting edges + 2 loops

    def test_fig7_vertex_and_loops(self, capsys):
        code, out, _ = run(capsys, "repro", "fig7")
        assert code == 0
        assert '"[012]"' in out
        assert '[label="[0120]"]' in out and '[label="[012120]"]' in out

    def test_ex8_scaled_down(self, capsys):
        code, out, _ = run(capsys, "--length", "600", "--nmax", "12", "repro", "ex8")
        assert code == 0
        assert "overall ok: True" in out

    def test_ex8_checks_the_doubled_prefix(self, capsys):
        # length 20 is unstable at n_max 12, so verify doubles the prefix to 160
        code, out, _ = run(capsys, "--length", "20", "--nmax", "12", "repro", "ex8")
        assert code == 0
        assert "prefix length 160" in out and "FAIL" not in out

    def test_ex6_scaled_down(self, capsys):
        code, out, _ = run(capsys, "--length", "700", "--nmax", "13", "repro", "ex6")
        assert code == 0
        assert "overall ok: True" in out

    def test_subgroups_scaled_down(self, capsys):
        code, out, _ = run(capsys, "--length", "900", "--nmax", "12", "repro", "subgroups")
        assert code == 0
        assert out.count("rich-up-to-nmax") == 4  # full group and three subgroups
        assert out.count("index-2 identity holds") == 3
