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
    GroupError,
    InsufficientPrefixError,
    SourceError,
    SymrichError,
)
from .graphs import directed_symmetry_graph, rauzy_graph, undirected_symmetry_graph
from .index import LanguageIndex
from .palindromes import g_lps, prefix_table_csv
from .symmetry import SymmetryGroup, SymmetryMap, dihedral_group
from .repro import repro_hexa, repro_octa
from .verify import INCONSISTENT, complete_return_words, min_distinguishing, subgroup_scan, verify
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


def _as_int(value, what: str) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, bool) or isinstance(value, float) and number != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return number


def _nonnegative(value: int, what: str) -> int:
    if value < 0:
        raise ConfigError(f"{what} must be nonnegative, got {value}")
    return value


def _as_glyph(value, what: str) -> str:
    text = str(value)
    if len(text) != 1:
        raise ConfigError(f"{what} must be a single glyph, got {text!r}")
    return text


def _as_string(value, what: str) -> str:
    """A field that YAML must read as a string: unquoted, 01 reads as the
    number 1 and 0110 as the octal 72."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}; quote it in the YAML")
    return value


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
    return Alphabet.from_string(_as_string(raw, "alphabet"))


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
        return PeriodicSource(alphabet, _as_string(raw.get("period", ""), "word.period"))
    if kind == "literal":
        return LiteralSource(alphabet, _as_string(raw.get("word", ""), "word.word"))
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
        try:
            generators.append(SymmetryMap.from_mapping(alphabet, mapping, kind == "antimorphism"))
        except GroupError as exc:  # a map that misses a glyph, names a foreign one or is no bijection
            raise ConfigError(f"group generator #{i} map: {exc}") from exc
    return SymmetryGroup.close(generators)


def load_config(path: str) -> AnalysisConfig:
    try:
        with open(path, "rb") as fh:  # PyYAML decodes: UTF-8, or UTF-16/32 by BOM
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
    length = _nonnegative(_as_int(analysis.get("length", 2000), "analysis.length"), "analysis.length")
    n_max = _nonnegative(_as_int(analysis.get("n_max", 30), "analysis.n_max"), "analysis.n_max")
    threshold = _as_int(analysis.get("threshold", 1), "analysis.threshold")
    return AnalysisConfig(alphabet, source, group, length, n_max, threshold)


def _apply_overrides(config: AnalysisConfig, args) -> AnalysisConfig:
    if args.length is not None:
        config.length = _nonnegative(args.length, "--length")
    if args.nmax is not None:
        config.n_max = _nonnegative(args.nmax, "--nmax")
    if args.threshold is not None:
        config.threshold = args.threshold
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
    n = len(args.factor)
    if not n:
        raise SourceError("return words are only defined for nonempty factors")
    if n > len(text):
        raise SourceError(f"factor of length {n} cannot occur in text of length {len(text)}")
    rep = cfg.group.class_representative(args.factor)
    returns = complete_return_words(cfg.group, text, args.factor)
    return "".join([f"complete return words of class [{rep}]:\n"] + [f"  {v}\n" for v in returns])


def _cmd_lps(args) -> str:
    cfg = _need_config(args)
    _nonnegative(args.prefix_length, "prefix_length")
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
    _nonnegative(args.n, "--n")
    index = LanguageIndex(cfg.source.prefix(cfg.length), cfg.n_max + 2, cfg.group)
    return GRAPHS[args.kind](cfg.group, index, args.n).to_dot()


def _cmd_verify(args) -> tuple[str, int]:
    cfg = _need_config(args)
    _check_indexing_bounds(cfg)
    report = verify(cfg.group, cfg.source, cfg.length, cfg.n_max, cfg.threshold)
    code = EXIT_REFUTED_INVARIANT if report.overall == INCONSISTENT else 0
    return report.to_text(), code


# -- reproduction presets --------------------------------------------------------------


def _repro_table1(_args) -> str:
    group = presets.binary_full_group()
    text = presets.thue_morse_source().prefix(19)
    return prefix_table_csv(group, text)


def _repro_figure(args) -> str:
    make_group, make_source, length, order, kinds = FIGURES[args.preset]
    group = make_group()
    index = LanguageIndex(make_source().prefix(length), order, group)
    return "".join(GRAPHS[kind](group, index, 3).to_dot() for kind in kinds)


def _preset_size(value: int | None, default: int, flag: str) -> int:
    """A repro preset's --length or --nmax, or the preset's default when not given."""
    if value is None:
        return default
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1 for repro presets, got {value}")
    return value


def _repro_case_study(args) -> tuple[str, int]:
    report = CASE_STUDIES[args.preset](length=_preset_size(args.length, 2000, "--length"),
                                       n_max=_preset_size(args.nmax, 30, "--nmax"))
    return report.to_text(), 0 if report.ok else EXIT_REFUTED_INVARIANT


def _repro_subgroups(args) -> tuple[str, int]:
    length = _preset_size(args.length, 2000, "--length")
    n_max = _preset_size(args.nmax, 20, "--nmax")
    if length < n_max + 2:
        raise InsufficientPrefixError(f"prefix of length {length} cannot support n_max={n_max}")
    results = subgroup_scan(LanguageIndex(presets.hexa_text(length), n_max + 2, presets.hexa_group()))
    bad = any(r.identity_ok is False for r in results)
    body = "\n".join(r.render() for r in results) + "\n"
    return body, EXIT_REFUTED_INVARIANT if bad else 0


#: graph kind -> builder of its graph of (group, index, order)
GRAPHS = {
    "rauzy": lambda _group, index, n: rauzy_graph(index, n),
    "sym-directed": directed_symmetry_graph,
    "sym-undirected": undirected_symmetry_graph,
}

#: figure -> (group, word source, prefix length, index order, graph kinds drawn at order 3)
FIGURES = {
    "fig1": (lambda: presets.reversal_group(presets.BINARY), presets.fibonacci_source, 300, 12,
             ("sym-directed", "sym-undirected")),
    "fig3": (presets.binary_full_group, presets.thue_morse_source, 400, 6, ("rauzy",)),
    "fig4": (presets.binary_full_group, presets.thue_morse_source, 400, 12, ("sym-directed",)),
    "fig5": (presets.binary_full_group, presets.thue_morse_source, 400, 12, ("sym-undirected",)),
    "fig6": (lambda: presets.reversal_group(presets.BINARY), presets.thue_morse_source, 400, 12,
             ("sym-undirected",)),
    "fig7": (lambda: dihedral_group(3), lambda: presets.generalized_thue_morse(3, 3), 600, 14,
             ("sym-undirected",)),
}

CASE_STUDIES = {"ex8": repro_octa, "ex6": repro_hexa}

REPRO_PRESETS = {
    "table1": _repro_table1,
    **dict.fromkeys(FIGURES, _repro_figure),
    **dict.fromkeys(CASE_STUDIES, _repro_case_study),
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


def _add_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML analysis config")
    parser.add_argument("--length", type=int, help="prefix length override")
    parser.add_argument("--nmax", type=int, help="maximum analyzed factor length override")
    parser.add_argument("--threshold", type=int, help="property threshold override")
    parser.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrich",
        description="Richness analysis of words invariant under finite symmetry groups.",
    )
    _add_options(parser)

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
    p_graph.add_argument("kind", choices=list(GRAPHS))
    p_graph.add_argument("--n", type=int, help="graph order")

    sub.add_parser("verify", help="full richness verification report")

    p_repro = sub.add_parser("repro", help="reproduction presets")
    p_repro.add_argument("preset", choices=sorted(REPRO_PRESETS))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # argparse sets an unknown option before the command aside and takes the
    # word after it for the command, so its own error would name that word
    options = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_options(options)
    options.add_argument("-h", "--help", action="store_true")
    try:
        rest = options.parse_known_args(argv)[1]
    except argparse.ArgumentError:  # the full parser reports it
        rest = []
    if rest and rest[0].startswith("-") and rest[0] != "--":
        parser.error(f"unrecognized arguments: {rest[0]}")
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
