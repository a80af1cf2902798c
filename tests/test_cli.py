import hashlib
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracles import complete_g_return_words
from symrich import LanguageIndex, SymmetryGroup
from symrich.cli import EXIT_CONFIG, EXIT_INSUFFICIENT_PREFIX, EXIT_REFUTED_INVARIANT, main
from symrich.presets import binary_full_group, hexa_group, thue_morse_source

ROOT = Path(__file__).resolve().parent.parent
BENCH_REFERENCE = ROOT / "bench" / "reference.json"
HUGE = str(10 ** 20)  # a length above sys.maxsize

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

    def test_returns_builds_no_index(self, capsys, tm_config, monkeypatch):
        def refuse(*args):
            raise AssertionError("returns built a factor index")

        monkeypatch.setattr(LanguageIndex, "__init__", refuse)
        code, out, _ = run(capsys, "--config", tm_config, "returns", "011")
        assert code == 0 and out.startswith("complete return words of class [001]:\n")

    def test_returns_of_a_long_factor(self, capsys, tm_config):
        # a 3000-letter factor of a 20000-letter prefix; an index up to its
        # length would hold every factor of 1..3000 letters
        text = thue_morse_source().prefix(20000)
        factor = text[5000:8000]
        code, out, _ = run(capsys, "--config", tm_config, "--length", "20000", "returns", factor)
        group = binary_full_group()
        returns = sorted(complete_g_return_words(group, factor, text))
        assert code == 0 and len(returns) == 6
        assert out == "".join([f"complete return words of class [{group.class_representative(factor)}]:\n"]
                              + [f"  {v}\n" for v in returns])

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

    def test_config_not_utf8(self, capsys, tmp_path):
        # a byte that starts no UTF-8 sequence is a YAML reader error, not a traceback
        path = tmp_path / "bad.yaml"
        path.write_bytes(b'alphabet: "\x80"\n')
        code, out, err = run(capsys, "--config", str(path), "word")
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith(f"config error: config {path} is not valid YAML")

    def test_config_with_non_ascii_glyphs(self, capsys, tmp_path):
        path = tmp_path / "glyphs.yaml"
        path.write_text('alphabet: "éß"\nword:\n  kind: periodic\n  period: "éßß"\n'
                        'group:\n  - kind: antimorphism\n    map: ["é -> é", "ß -> ß"]\n', encoding="utf-8")
        code, out, _ = run(capsys, "--config", str(path), "--length", "7", "word")
        assert code == 0 and out.strip() == "éßßéßßé"

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
        ("analysis.length", "length: 600", "length: true"),
        ("analysis.n_max", "n_max: 10", "n_max: false"),
        ("word.base", "base: 2", "base: true"),
    ])
    def test_boolean_field(self, capsys, tmp_path, field, old, new):
        # YAML reads true and false as booleans, which int() would take for 1 and 0
        path = tmp_path / "bool.yaml"
        path.write_text(TM_CONFIG.replace(old, new))
        code, out, err = run(capsys, "--config", str(path), "word")
        assert code == EXIT_CONFIG and field in err and out == ""

    def test_huge_digit_sum_base(self, capsys, tmp_path):
        path = tmp_path / "huge_base.yaml"
        path.write_text(TM_CONFIG.replace("base: 2", "base: 100000000000000000000"))
        code, out, err = run(capsys, "--config", str(path), "--length", "200", "word")
        assert (code, err) == (0, "") and out == "01" * 100 + "\n"

    @pytest.mark.parametrize("argv", [
        ["word"], ["group"], ["complexity"], ["defect"], ["returns", "01"],
        ["graph", "rauzy", "--n", "3"], ["verify"],
        ["--length", HUGE, "repro", "ex8"], ["--length", HUGE, "repro", "ex6"],
        ["--length", HUGE, "repro", "subgroups"],
    ], ids=" ".join)
    def test_length_beyond_any_string(self, tmp_path, argv):
        # no string holds more than sys.maxsize letters: the length is refused at
        # once, where building toward it would never return
        path = tmp_path / "huge_length.yaml"
        path.write_text(TM_CONFIG.replace("length: 600", f"length: {HUGE}"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from symrich.cli import main; sys.exit(main(sys.argv[1:]))",
             "--config", str(path), *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == EXIT_CONFIG and proc.stdout == ""
        assert "exceeds the longest string" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["verify"], ["--length", HUGE, "repro", "ex8"], ["--length", HUGE, "repro", "ex6"],
    ], ids=" ".join)
    def test_refused_length_is_the_configured_one(self, tmp_path, argv):
        # the prefix is doubled only after the configured length passed the source's check
        path = tmp_path / "huge_length.yaml"
        path.write_text(TM_CONFIG.replace("length: 600", f"length: {HUGE}"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from symrich.cli import main; sys.exit(main(sys.argv[1:]))",
             "--config", str(path), *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == EXIT_CONFIG
        assert f"prefix length {HUGE} " in proc.stderr and str(2 * int(HUGE)) not in proc.stderr

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

    @pytest.mark.parametrize("field, old, new, quoted_word", [
        ("word.period", "kind: digit-sum\n  base: 2\n  modulus: 2", "kind: periodic\n  period: 01", "0101"),
        ("word.word", "kind: digit-sum\n  base: 2\n  modulus: 2", "kind: literal\n  word: 0110", "0110"),
        ("alphabet", 'alphabet: "01"', "alphabet: 01", "0110"),
    ], ids=["period", "literal", "alphabet"])
    def test_unquoted_word_field(self, capsys, tmp_path, field, old, new, quoted_word):
        # unquoted, YAML reads 01 as the number 1 and 0110 as the octal 72
        path = tmp_path / "unquoted.yaml"
        path.write_text(TM_CONFIG.replace(old, new))
        code, out, err = run(capsys, "--config", str(path), "word")
        assert code == EXIT_CONFIG and field in err and "quote" in err and out == ""
        head, _, value = new.rpartition(" ")
        path.write_text(TM_CONFIG.replace(old, f'{head} "{value}"'))
        assert run(capsys, "--config", str(path), "--length", "4", "word") == (0, quoted_word + "\n", "")

    def test_integral_float_reads_as_integer(self, capsys, tm_config, tmp_path):
        path = tmp_path / "float_int.yaml"
        path.write_text(TM_CONFIG.replace("length: 600", "length: 600.0").replace("modulus: 2", "modulus: 2.0"))
        assert run(capsys, "--config", str(path), "word") == run(capsys, "--config", tm_config, "word")

    def test_dual_defect_disagreement(self, capsys, tm_config, corrupted_defect_head):
        code, out, err = run(capsys, "--config", tm_config, "verify")
        assert code == EXIT_REFUTED_INVARIANT and out == ""
        assert "violated invariant: incremental defect profile disagrees" in err

    def test_dual_defect_disagreement_in_one_subgroup(self, capsys, corrupt_one_group):
        # the last proper subgroup, verified after nine that pass their checks
        corrupt_one_group([s for s in hexa_group().subgroups() if s.has_antimorphism][-2])
        code, out, err = run(capsys, "--length", "1000", "repro", "subgroups")
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

    GENERATOR = '  - kind: antimorphism\n    map: ["0 -> 1", "1 -> 0"]\n'  # TM_CONFIG's second

    @pytest.mark.parametrize("config, argv, named", [
        pytest.param(TM_CONFIG.replace('"0 -> 1", "1 -> 0"', '"0 -> 1"'), ["word"],
                     "group generator #1 map: map does not cover glyphs ['1']", id="map-misses-a-glyph"),
        pytest.param(TM_CONFIG.replace('"0 -> 1", "1 -> 0"', '"0 -> 1", "1 -> 0", "2 -> 2"'), ["word"],
                     "group generator #1 map: map defined on foreign glyphs", id="map-foreign-glyph"),
        pytest.param(TM_CONFIG.replace('"0 -> 1", "1 -> 0"', '"0 -> 1", "1 -> 1"'), ["word"],
                     "group generator #1 map: map ('1', '1') is not a bijection", id="map-no-bijection"),
        pytest.param(TM_CONFIG.replace('alphabet: "01"', 'alphabet: ["0", "01"]'), ["word"],
                     "alphabet entry", id="alphabet-list-entry-of-two-glyphs"),
        pytest.param(FIB_CONFIG.replace('rules: ["0 -> 01", "1 -> 0"]', 'rules: "0 -> 01"'), ["word"],
                     "word.rules must be a list", id="rules-not-a-list"),
        pytest.param(FIB_CONFIG.replace('"1 -> 0"]', '"1"]'), ["word"],
                     "word.rules entry '1'", id="rules-entry-without-arrow"),
        pytest.param(FIB_CONFIG.replace('"1 -> 0"]', '"10 -> 0"]'), ["word"],
                     "word.rules entry '10 -> 0'", id="rules-entry-of-two-glyphs"),
        pytest.param(FIB_CONFIG.replace('"1 -> 0"]', '"0 -> 0"]'), ["word"],
                     "word.rules maps glyph '0' twice", id="rules-glyph-twice"),
        pytest.param(TM_CONFIG.replace('alphabet: "01"\n', ""), ["word"],
                     "alphabet", id="no-alphabet"),
        pytest.param(TM_CONFIG.replace("word:\n  kind: digit-sum", 'word: "0110"\nold:\n  kind: digit-sum'),
                     ["word"], "section 'word'", id="word-not-a-mapping"),
        pytest.param(TM_CONFIG.replace('alphabet: "01"', 'alphabet: "012"'), ["word"],
                     "digit-sum word needs alphabet", id="digit-sum-alphabet"),
        pytest.param(TM_CONFIG.replace("kind: digit-sum", "kind: spiral"), ["word"],
                     "word kind 'spiral'", id="unknown-word-kind"),
        pytest.param(TM_CONFIG.split("group:")[0] + "group: []\n", ["word"],
                     "section 'group'", id="no-generator"),
        pytest.param(TM_CONFIG.replace(GENERATOR, "  - [0, 1]\n"), ["word"],
                     "group generator #1 must be a mapping", id="generator-not-a-mapping"),
        pytest.param(TM_CONFIG.replace(GENERATOR, GENERATOR.replace("antimorphism", "involution")),
                     ["word"], "group generator #1: kind", id="generator-kind"),
        pytest.param(None, ["word"], "cannot read config", id="unreadable-file"),
        pytest.param("- 1\n- 2\n", ["word"], "config must be a YAML mapping", id="config-not-a-mapping"),
        pytest.param(TM_CONFIG.replace("analysis:\n  length: 600\n  n_max: 10\n", "analysis: [600]\n"),
                     ["word"], "section 'analysis'", id="analysis-not-a-mapping"),
        pytest.param(TM_CONFIG, ["lps", "601"], "prefix length 601 exceeds configured length 600",
                     id="lps-beyond-the-length"),
        pytest.param(TM_CONFIG, ["graph", "rauzy"], "--n", id="graph-without-order"),
    ])
    def test_config_error_names_its_field(self, capsys, tmp_path, config, argv, named):
        path = tmp_path / "config.yaml"
        if config is not None:  # else the file does not exist
            path.write_text(config)
        code, out, err = run(capsys, "--config", str(path), *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: ") and named in err and "Traceback" not in err

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

    @pytest.mark.parametrize("argv, message", [
        (["--length", "200", "--threshold", "11", "--nmax", "10", "verify"],
         "threshold 11 exceeds n_max=10"),
        (["--nmax", "0", "verify"], "threshold 1 exceeds n_max=0"),
    ])
    def test_empty_order_range(self, capsys, tmp_path, argv, message):
        """No order is checked, so the order-bounded verdicts would pass vacuously."""
        path = tmp_path / "reversal.yaml"
        path.write_text(TM_CONFIG.replace('  - kind: antimorphism\n    map: ["0 -> 1", "1 -> 0"]\n', ""))
        code, out, err = run(capsys, "--config", str(path), *argv)
        assert (code, out) == (EXIT_CONFIG, "") and message in err

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

    def test_ex6_short_prefix(self, capsys):
        code, out, _ = run(capsys, "--length", "40", "--nmax", "3", "repro", "ex6")
        assert code == 0
        assert "overall ok: True" in out and "[ok] palindrome transport: holds" in out

    def test_ex6_checks_the_doubled_prefix(self):
        # the hexa prefix of 60 letters is unstable at n_max 20, so it is doubled to
        # 240; the doubling is logged at INFO, and with no handler nothing reaches stderr
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from symrich.cli import main; sys.exit(main(sys.argv[1:]))",
             "--length", "60", "--nmax", "20", "repro", "ex6"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "overall ok: True" in proc.stdout and "prefix length 240" in proc.stdout

    def test_subgroups_match_benchmark_reference(self, capsys):
        # the exit code and stdout digest recorded for the subgroup-scan benchmark workload
        expected = json.loads(BENCH_REFERENCE.read_text())["subgroup-scan"]["repro-subgroups"]
        code, out, _ = run(capsys, "--length", "1000", "repro", "subgroups")
        assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == expected

    def test_subgroups_translate_each_column_once(self, capsys, monkeypatch):
        # the 11 subgroups read one index's columns: each (map, order) pair is
        # translated once, and the return words make no per-factor class call
        builds, in_crw, representatives = Counter(), [], []
        real_column = LanguageIndex.column

        def column(self, g, n):
            if (g, n) not in self._columns:
                builds[g, n] += 1
            return real_column(self, g, n)

        verify_module = importlib.import_module("symrich.verify")  # not the function
        real_crw = verify_module.crw_records

        def crw_records(*args):
            in_crw.append(True)
            try:
                return real_crw(*args)
            finally:
                in_crw.pop()

        real_representative = SymmetryGroup.class_representative

        def class_representative(self, word):
            if in_crw:
                representatives.append(word)
            return real_representative(self, word)

        monkeypatch.setattr(LanguageIndex, "column", column)
        monkeypatch.setattr(verify_module, "crw_records", crw_records)
        monkeypatch.setattr(SymmetryGroup, "class_representative", class_representative)
        code, out, _ = run(capsys, "--length", "1000", "repro", "subgroups")
        assert code == 0 and out.count("subgroup ") == 11
        assert {g for g, _ in builds} == set(hexa_group().elements)
        assert set(builds.values()) == {1}
        assert representatives == []

    def test_subgroups_scaled_down(self, capsys):
        code, out, _ = run(capsys, "--length", "900", "--nmax", "12", "repro", "subgroups")
        assert code == 0
        assert out.count("rich-up-to-nmax") == 4  # full group and three subgroups
        assert out.count("index-2 identity holds") == 3
