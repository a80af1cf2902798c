"""Command-line front end.

Analyses are described by a YAML config (alphabet, word source, group
generators, analysis parameters); reproduction presets are self-contained.
Exit codes: 0 success, 2 config error, 3 insufficient prefix, 4 violated
internal invariant (inconsistent report or failed reproduction identity).

Example config::

    alphabet: "01"
    word:
      kind: morphic          # morphic | digit-sum | periodic | literal
      seed: "0"
      rules: ["0 -> 01", "1 -> 0"]
    group:
      - kind: antimorphism   # morphism | antimorphism
        map: ["0 -> 0", "1 -> 1"]
    analysis:
      length: 2000
      n_max: 30
      threshold: 1
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import yaml

from . import presets
from .errors import (
    ClosureError,
    ConfigError,
    ConsistencyError,
    InsufficientPrefixError,
    SymrichError,
)
from .graphs import directed_symmetry_graph, rauzy_graph, undirected_symmetry_graph
from .index import LanguageIndex
from .palindromes import complete_g_return_words, g_lps, prefix_table_csv
from .symmetry import SymmetryGroup, SymmetryMap, dihedral_group
from .repro import repro_hexa, repro_octa
from .verify import INCONSISTENT, min_distinguishing, subgroup_scan, verify
from .words import (
    Alphabet,
    DigitSumSource,
    FixedPointSource,
    LiteralSource,
    PeriodicSource,
    WordSource,
)

EXIT_CONFIG = 2
EXIT_INSUFFICIENT_PREFIX = 3
EXIT_REFUTED_INVARIANT = 4


@dataclass
class AnalysisConfig:
    alphabet: Alphabet
    source: WordSource
    group: SymmetryGroup
    length: int
    n_max: int
    threshold: int
    out_format: str


def _as_int(value, what: str) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float) and number != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return number


def _as_glyph(value, what: str) -> str:
    text = str(value)
    if len(text) != 1:
        raise ConfigError(f"{what} must be a single glyph, got {text!r}")
    return text


def _parse_arrow_pairs(entries, what: str) -> dict[str, str]:
    """Parse 'x -> yz' lines into a mapping."""
    if not isinstance(entries, list):
        raise ConfigError(f"{what} must be a list of 'glyph -> glyphs' strings")
    mapping: dict[str, str] = {}
    for entry in entries:
        parts = str(entry).split("->")
        if len(parts) != 2:
            raise ConfigError(f"{what} entry {entry!r} is not of the form 'glyph -> glyphs'")
        src = parts[0].strip()
        dst = parts[1].strip()
        if len(src) != 1:
            raise ConfigError(f"{what} entry {entry!r} must map a single glyph")
        if src in mapping:
            raise ConfigError(f"{what} maps glyph {src!r} twice")
        mapping[src] = dst
    return mapping


def _parse_alphabet(raw) -> Alphabet:
    if raw is None:
        raise ConfigError("config must declare an alphabet")
    if isinstance(raw, list):
        return Alphabet(tuple(_as_glyph(g, "alphabet entry") for g in raw))
    return Alphabet.from_string(str(raw))


def _parse_source(raw, alphabet: Alphabet) -> WordSource:
    if not isinstance(raw, dict):
        raise ConfigError("config section 'word' must be a mapping with a 'kind'")
    kind = str(raw.get("kind", ""))
    if kind == "morphic":
        rules = _parse_arrow_pairs(raw.get("rules"), "word.rules")
        seed = _as_glyph(raw.get("seed"), "word.seed")
        return FixedPointSource(alphabet, rules, seed)
    if kind == "digit-sum":
        source = DigitSumSource(_as_int(raw.get("base", 0), "word.base"),
                                _as_int(raw.get("modulus", 0), "word.modulus"))
        if source.alphabet.glyphs != alphabet.glyphs:
            raise ConfigError(
                f"digit-sum word needs alphabet {source.alphabet}, config declares {alphabet}"
            )
        return source
    if kind == "periodic":
        return PeriodicSource(alphabet, str(raw.get("period", "")))
    if kind == "literal":
        return LiteralSource(alphabet, str(raw.get("word", "")))
    raise ConfigError(f"unknown word kind {kind!r} (morphic | digit-sum | periodic | literal)")


def _parse_group(raw, alphabet: Alphabet) -> SymmetryGroup:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config section 'group' must be a nonempty list of generators")
    generators = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"group generator #{i} must be a mapping")
        kind = str(entry.get("kind", ""))
        if kind not in ("morphism", "antimorphism"):
            raise ConfigError(f"group generator #{i}: kind must be morphism or antimorphism")
        mapping = {
            src: _as_glyph(dst, f"group generator #{i} image")
            for src, dst in _parse_arrow_pairs(entry.get("map"), f"group generator #{i} map").items()
        }
        generators.append(SymmetryMap.from_mapping(alphabet, mapping, kind == "antimorphism"))
    return SymmetryGroup.close(generators)


def load_config(path: str) -> AnalysisConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a YAML mapping")
    alphabet = _parse_alphabet(raw.get("alphabet"))
    source = _parse_source(raw.get("word"), alphabet)
    group = _parse_group(raw.get("group"), alphabet)
    analysis = raw.get("analysis") or {}
    if not isinstance(analysis, dict):
        raise ConfigError("config section 'analysis' must be a mapping")
    length = _as_int(analysis.get("length", 2000), "analysis.length")
    n_max = _as_int(analysis.get("n_max", 30), "analysis.n_max")
    threshold = _as_int(analysis.get("threshold", 1), "analysis.threshold")
    out_format = str(analysis.get("format", "report"))
    return AnalysisConfig(alphabet, source, group, length, n_max, threshold, out_format)


def _apply_overrides(config: AnalysisConfig, args) -> AnalysisConfig:
    if args.length is not None:
        config.length = args.length
    if args.nmax is not None:
        config.n_max = args.nmax
    if args.threshold is not None:
        config.threshold = args.threshold
    if args.format is not None:
        config.out_format = args.format
    return config


def _need_config(args) -> AnalysisConfig:
    if not args.config:
        raise ConfigError("this command needs --config <path>")
    return _apply_overrides(load_config(args.config), args)


def _check_indexing_bounds(cfg: AnalysisConfig) -> None:
    """Indexing commands need room for extension data above n_max."""
    if cfg.length < cfg.n_max + 2:
        raise ConfigError(f"length must be at least n_max + 2 = {cfg.n_max + 2}")


# -- commands -----------------------------------------------------------------------


def _cmd_word(args) -> str:
    cfg = _need_config(args)
    return cfg.source.prefix(cfg.length) + "\n"


def _cmd_group(args) -> str:
    cfg = _need_config(args)
    _check_indexing_bounds(cfg)
    g = cfg.group
    index = LanguageIndex(cfg.source.prefix(cfg.length), cfg.n_max, g)
    lines = [g.describe()]
    lines.append("elements: " + " ".join(e.name for e in g.elements))
    lines.append("involutive antimorphisms: " + " ".join(e.name for e in g.involutive_antimorphisms))
    lines.append(f"involutively generated: {g.is_involutively_generated()}")
    lines.append(f"min distinguishing n on this word: {min_distinguishing(g, index, cfg.n_max)}")
    return "\n".join(lines) + "\n"


def _cmd_complexity(args) -> str:
    cfg = _need_config(args)
    _check_indexing_bounds(cfg)
    index = LanguageIndex(cfg.source.prefix(cfg.length), cfg.n_max, cfg.group)
    return index.complexity().to_csv()


def _cmd_defect(args) -> str:
    cfg = _need_config(args)
    return prefix_table_csv(cfg.group, cfg.source.prefix(cfg.length))


def _cmd_returns(args) -> str:
    cfg = _need_config(args)
    cfg.alphabet.check_word(args.factor)
    text = cfg.source.prefix(cfg.length)
    returns = sorted(complete_g_return_words(cfg.group, args.factor, text))
    lines = [f"complete return words of class [{cfg.group.class_representative(args.factor)}]:"]
    lines += [f"  {v}" for v in returns]
    return "\n".join(lines) + "\n"


def _cmd_lps(args) -> str:
    cfg = _need_config(args)
    if args.prefix_length > cfg.length:
        raise ConfigError(f"prefix length {args.prefix_length} exceeds configured length {cfg.length}")
    text = cfg.source.prefix(args.prefix_length)
    lps = g_lps(cfg.group, text)
    return (lps or "(empty)") + "\n"


def _cmd_graph(args) -> str:
    cfg = _need_config(args)
    _check_indexing_bounds(cfg)
    if args.n is None:
        raise ConfigError("graph command needs --n <order>")
    index = LanguageIndex(cfg.source.prefix(cfg.length), cfg.n_max + 2, cfg.group)
    if args.kind == "rauzy":
        return rauzy_graph(index, args.n).to_dot()
    if args.kind == "sym-directed":
        return directed_symmetry_graph(cfg.group, index, args.n).to_dot()
    return undirected_symmetry_graph(cfg.group, index, args.n).to_dot()


def _cmd_verify(args) -> tuple[str, int]:
    cfg = _need_config(args)
    _check_indexing_bounds(cfg)
    report = verify(cfg.group, cfg.source, cfg.length, cfg.n_max, cfg.threshold)
    code = EXIT_REFUTED_INVARIANT if report.overall == INCONSISTENT else 0
    return report.to_text(), code


# -- reproduction presets --------------------------------------------------------------


def _tm_group_index(n_depth: int, length: int = 400) -> tuple[SymmetryGroup, LanguageIndex]:
    group = presets.binary_full_group()
    text = presets.thue_morse_source().prefix(length)
    return group, LanguageIndex(text, n_depth, group)


def _repro_table1(_args) -> str:
    group = presets.binary_full_group()
    text = presets.thue_morse_source().prefix(19)
    return prefix_table_csv(group, text)


def _repro_fig1(_args) -> str:
    group = presets.reversal_group(presets.BINARY)
    text = presets.fibonacci_source().prefix(300)
    index = LanguageIndex(text, 12, group)
    directed = directed_symmetry_graph(group, index, 3)
    undirected = undirected_symmetry_graph(group, index, 3)
    return directed.to_dot() + undirected.to_dot()


def _repro_fig3(_args) -> str:
    _, index = _tm_group_index(6)
    return rauzy_graph(index, 3).to_dot()


def _repro_fig4(_args) -> str:
    group, index = _tm_group_index(12)
    return directed_symmetry_graph(group, index, 3).to_dot()


def _repro_fig5(_args) -> str:
    group, index = _tm_group_index(12)
    return undirected_symmetry_graph(group, index, 3).to_dot()


def _repro_fig6(_args) -> str:
    group = presets.reversal_group(presets.BINARY)
    text = presets.thue_morse_source().prefix(400)
    index = LanguageIndex(text, 12, group)
    return undirected_symmetry_graph(group, index, 3).to_dot()


def _repro_fig7(_args) -> str:
    source = presets.generalized_thue_morse(3, 3)
    group = dihedral_group(3)
    index = LanguageIndex(source.prefix(600), 14, group)
    return undirected_symmetry_graph(group, index, 3).to_dot()


def _repro_ex8(args) -> tuple[str, int]:
    report = repro_octa(length=args.length or 2000, n_max=args.nmax or 30)
    return report.to_text(), 0 if report.ok else EXIT_REFUTED_INVARIANT


def _repro_ex6(args) -> tuple[str, int]:
    report = repro_hexa(length=args.length or 2000, n_max=args.nmax or 30)
    return report.to_text(), 0 if report.ok else EXIT_REFUTED_INVARIANT


def _repro_subgroups(args) -> tuple[str, int]:
    results = subgroup_scan(
        presets.hexa_group(),
        text=presets.hexa_text(args.length or 2000),
        n_max=args.nmax or 20,
        stability=True,
    )
    bad = any(r.identity_ok is False for r in results)
    body = "\n".join(r.render() for r in results) + "\n"
    return body, EXIT_REFUTED_INVARIANT if bad else 0


REPRO_PRESETS = {
    "table1": _repro_table1,
    "fig1": _repro_fig1,
    "fig3": _repro_fig3,
    "fig4": _repro_fig4,
    "fig5": _repro_fig5,
    "fig6": _repro_fig6,
    "fig7": _repro_fig7,
    "ex8": _repro_ex8,
    "ex6": _repro_ex6,
    "subgroups": _repro_subgroups,
}


#: command name -> handler returning the output, or (output, exit code)
COMMANDS = {
    "word": _cmd_word,
    "group": _cmd_group,
    "complexity": _cmd_complexity,
    "defect": _cmd_defect,
    "returns": _cmd_returns,
    "lps": _cmd_lps,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
    "repro": lambda args: REPRO_PRESETS[args.preset](args),
}


def _emit(output: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(output)
        return
    try:
        with open(path, "w") as fh:
            fh.write(output)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}")


# -- argument parsing -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrich",
        description="Richness analysis of words invariant under finite symmetry groups.",
    )
    parser.add_argument("--config", help="YAML analysis config")
    parser.add_argument("--length", type=int, help="prefix length override")
    parser.add_argument("--nmax", type=int, help="maximum analyzed factor length override")
    parser.add_argument("--threshold", type=int, help="property threshold override")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=["csv", "dot", "report"], help="output format hint")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("word", help="emit the configured prefix")
    sub.add_parser("group", help="emit the group closure and its properties")
    sub.add_parser("complexity", help="complexity table as CSV")
    sub.add_parser("defect", help="per-prefix palindrome/defect table as CSV")

    p_returns = sub.add_parser("returns", help="complete return words of a factor class")
    p_returns.add_argument("factor")

    p_lps = sub.add_parser("lps", help="longest palindromic suffix of a prefix")
    p_lps.add_argument("prefix_length", type=int)

    p_graph = sub.add_parser("graph", help="emit a graph in DOT form")
    p_graph.add_argument("kind", choices=["rauzy", "sym-directed", "sym-undirected"])
    p_graph.add_argument("--n", type=int, help="graph order")

    sub.add_parser("verify", help="full richness verification report")

    p_repro = sub.add_parser("repro", help="reproduction presets")
    p_repro.add_argument("preset", choices=sorted(REPRO_PRESETS))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
        output, code = result if isinstance(result, tuple) else (result, 0)
        _emit(output, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InsufficientPrefixError, ClosureError) as exc:
        print(f"insufficient prefix: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_PREFIX
    except ConsistencyError as exc:
        print(f"violated invariant: {exc}", file=sys.stderr)
        return EXIT_REFUTED_INVARIANT
    except SymrichError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
