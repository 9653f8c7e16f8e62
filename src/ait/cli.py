"""Command-line interface: ``ait`` with one subcommand per surface.

All commands are deterministic; --seedless is accepted everywhere to assert
that no entropy source is consulted (none ever is: the only generators are
fixed linear-congruential fixtures).  Exit codes: 0 on success and all
assertions passing, 1 on a failed assertion or failed search, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import frozen
from .codec import assert_bits, decode_string_set
from .complexity import k_t, km_t, m_set, m_t
from .dyadic import Dyadic
from .frozen import FIXTURE, FROZEN, CalibrationUndefined, calibrate
from .harness import EXPERIMENTS, run_all, run_experiment
from .leftward import border_prefix, get_interval_table, m_b, omega_pair
from .machine import MachineConfig, get_enumeration
from .measures import (
    SEMIMEASURE,
    HittingInfeasible,
    NotInSupport,
    StochasticityNotFound,
    SupportNotHeavy,
    UnreachableSupport,
    deficiency,
    hitting_score,
    hitting_vector,
    measure_violations,
    stochasticity,
    ElementaryMeasure,
)
from .monotone import (
    DepthExceeded,
    InsufficientMass,
    NuFunction,
    ThetaTable,
    build_nu,
    preimage_count,
)
from .predicates import (
    BinaryPredicate,
    ExtensionNotFound,
    complete_extension_search,
    predicate_entry,
)

# searches and lookups that fail on well-formed input: a JSON error, exit 1
_DOMAIN_ERRORS = (
    CalibrationUndefined,
    DepthExceeded,
    ExtensionNotFound,
    HittingInfeasible,
    InsufficientMass,
    NotInSupport,
    StochasticityNotFound,
    SupportNotHeavy,
    UnreachableSupport,
)

# hitvec makes c*d*2^(i+1) greedy draws, each a pass over the measure's
# support while some set is unhit; more than this many is a usage error
# (2^16 such draws over four elements and five sets take about 0.06 s with
# their JSON output, in process on a 2-vCPU VM)
HITVEC_MAX_DRAWS = 1 << 16


class _UsageError(ValueError):
    """Malformed command-line or file input: exit 2."""


def _read_bits_token(token: str) -> str:
    try:
        return assert_bits("" if token == "-" else token)
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _nonnegative(token: str) -> int:
    """An argparse type: a decimal integer of at least 0."""
    if not (token.isascii() and token.isdigit()):
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {token!r}")
    return int(token)


def _open(path: str, mode: str):
    """Open a named file; a missing or unreadable one is a usage error."""
    try:
        return open(path, mode, encoding="ascii")
    except OSError as err:
        raise _UsageError(f"{path}: {err.strerror}") from None


def _read_lines(path: str, parse) -> list:
    """Parse every nonblank line; an unreadable file or a malformed line is a
    usage error."""
    with _open(path, "r") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise _UsageError(f"{path}: not an ASCII text file") from None
    rows = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                rows.append(parse(line.rstrip("\n")))
            except ValueError as err:
                raise _UsageError(f"{path}:{number}: {err}") from None
    return rows


def _read_keyed(path: str, parse) -> dict:
    """A file of one (key, value) pair per nonblank line, as a dict; a
    repeated key is a usage error on its line, as a malformed line is."""
    rows: dict = {}

    def entry(line: str) -> None:
        key, value = parse(line)
        if key in rows:
            raise ValueError(f"repeated key {key!r}")
        rows[key] = value

    _read_lines(path, entry)
    return rows


def _read_set_file(path: str) -> list[str]:
    return _read_lines(path, lambda line: _read_bits_token(line.strip()))


def _measure_entry(line: str):
    bits, value = line.split("\t")
    return _read_bits_token(bits), Dyadic.parse(value).as_fraction()


def _set_measure_entry(line: str):
    """A measure line whose support element is a canonical set encoding."""
    bits, weight = _measure_entry(line)
    decode_string_set(bits)
    return bits, weight


def _read_measure_file(path: str, parse) -> ElementaryMeasure:
    """A measure file, whose weights must be positive with a sum of at most 1."""
    w = ElementaryMeasure(_read_keyed(path, parse), SEMIMEASURE)
    problems = measure_violations(w)
    if problems:
        raise _UsageError(f"{path}: invalid measure: {problems[0]}")
    return w


def _predicate_pair(line: str) -> tuple[int, int]:
    idx, bit = line.split("\t")
    return predicate_entry(int(idx), int(bit))


def _config_entry(line: str):
    """One ``key=value`` line as (argument dest, value); None for a comment."""
    if line.lstrip().startswith("#"):
        return None
    key, _, value = line.partition("=")
    key, value = key.strip(), value.strip()
    if key in ("max_len", "fuel", "stoch_max_v_len"):
        return key, int(value)
    if key == "lambda_scoring":
        if value not in ("3logk", "k"):
            raise ValueError(f"unknown lambda_scoring {value!r}")
        return "scoring", value
    raise ValueError(f"unknown config key {key!r}")


def _machine_config(args) -> MachineConfig:
    """The bounds from the flags, overridden by the config file if given."""
    if getattr(args, "config", None):
        for entry in _read_lines(args.config, _config_entry):
            if entry is not None:
                setattr(args, *entry)
    return _bounds(args.max_len, args.fuel)


def _bounds(max_len: int, fuel: int) -> MachineConfig:
    """MachineConfig(max_len, fuel), whose own check fails as a usage error."""
    try:
        return MachineConfig(max_len, fuel)
    except ValueError as err:
        raise _UsageError(str(err)) from None


def main(argv=None) -> int:
    # the resource flags are accepted both before and after the subcommand;
    # SUPPRESS keeps an unset trailing flag from clobbering a leading one, so
    # the defaults come from the namespace handed to parse_args
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-len", type=int, dest="max_len",
                        default=argparse.SUPPRESS)
    common.add_argument("--fuel", type=int, default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file")
    common.add_argument("--seedless", action="store_true",
                        default=argparse.SUPPRESS,
                        help="assert no entropy source is consulted (always true)")

    parser = argparse.ArgumentParser(prog="ait", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("machine", help="machine-level operations")
    msub = p.add_subparsers(dest="machine_command", required=True)
    pe = msub.add_parser("enumerate", parents=[common],
                         help="list minimal halting programs")
    pe.add_argument("--aux", default="")

    p = sub.add_parser("border", parents=[common],
                       help="border prefix and halting-mass gap")

    p = sub.add_parser("omega", parents=[common],
                       help="halting probability within bounds")

    p = sub.add_parser("mb", parents=[common],
                       help="left-of-or-extending algorithmic weight")
    p.add_argument("--prefix", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--cond", default="")

    p = sub.add_parser("k", parents=[common], help="shortest-program length")
    p.add_argument("x")
    p.add_argument("--cond", default="")

    p = sub.add_parser("m", parents=[common],
                       help="algorithmic probability of a string")
    p.add_argument("x")
    p.add_argument("--cond", default="")

    p = sub.add_parser("mset", parents=[common],
                       help="algorithmic probability of a set (file)")
    p.add_argument("file")
    p.add_argument("--cond", default="")

    p = sub.add_parser("km", parents=[common],
                       help="prefix-set complexity of a set (file)")
    p.add_argument("file")

    p = sub.add_parser("deficiency", parents=[common],
                       help="deficiency of randomness")
    p.add_argument("--element", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--cond", default="")

    p = sub.add_parser("stoch", parents=[common],
                       help="bounded stochasticity search")
    p.add_argument("--element", required=True)
    p.add_argument("--cond", default="")
    p.add_argument("--max-v-len", type=int, default=None, dest="stoch_max_v_len",
                   help="default: --max-len")
    p.add_argument("--fuel-v", type=int, default=256, dest="stoch_fuel")
    p.add_argument("--scoring", choices=("3logk", "k"), default="3logk")

    p = sub.add_parser("hitvec", parents=[common],
                       help="derandomized hitting vector")
    p.add_argument("--sets", required=True, help="measure file over set encodings")
    p.add_argument("--measure", required=True)
    p.add_argument("-i", type=_nonnegative, required=True)
    p.add_argument("-c", type=_nonnegative, required=True)
    p.add_argument("-d", type=_nonnegative, required=True)

    p = sub.add_parser("nu", help="transducer operations")
    nsub = p.add_subparsers(dest="nu_command", required=True)
    pb = nsub.add_parser("build", parents=[common])
    pb.add_argument("table")
    pb.add_argument("--stages", type=_nonnegative, default=None)
    pa = nsub.add_parser("apply", parents=[common])
    pa.add_argument("table")
    pa.add_argument("y")
    pp = nsub.add_parser("preimage", parents=[common])
    pp.add_argument("table")
    pp.add_argument("members", help="comma-separated prefix set; an empty item or - is the "
                    "empty string, and a list that opens with it is written ,0 or -- -,0")
    pp.add_argument("n", type=_nonnegative)

    p = sub.add_parser("predicate", help="predicate operations")
    psub = p.add_subparsers(dest="predicate_command", required=True)
    pc = psub.add_parser("complete", parents=[common])
    pc.add_argument("file")

    p = sub.add_parser("experiment", parents=[common],
                       help="run verification experiments")
    p.add_argument("name", choices=EXPERIMENTS + ("all",))
    p.add_argument("--out", default=None)

    p = sub.add_parser("calibrate", parents=[common],
                       help="recompute measured machine constants")
    p.add_argument("--write", action="store_true",
                   help="rewrite frozen.py in a source checkout")

    defaults = argparse.Namespace(max_len=FIXTURE.max_program_len, fuel=FIXTURE.fuel,
                                  config=None, seedless=False)
    args = parser.parse_args(argv, defaults)
    try:
        return _dispatch(args, _machine_config(args))
    except _UsageError as err:
        parser.error(str(err))
    except _DOMAIN_ERRORS as err:
        print(json.dumps({"error": str(err)}))
        return 1


def _emit(result: dict) -> int:
    print(json.dumps(result, sort_keys=True))
    return 0


def _dispatch(args, cfg: MachineConfig) -> int:
    if args.command == "machine" and args.machine_command == "enumerate":
        sys.stdout.writelines(get_enumeration(cfg, _read_bits_token(args.aux)).lines())
        return 0

    if args.command == "border":
        b = border_prefix(cfg)
        om, omh = omega_pair(b, cfg)
        # the bound length vs complexity comparison only concerns the true
        # border, so the proxy's k is reported next to its length, never
        # asserted against it
        k_border = k_t(b.bits, "", cfg)
        return _emit({"border": b.bits, "length": len(b.bits), "k": k_border.value,
                      "omega": str(om), "omega_hat": str(omh)})

    if args.command == "omega":
        table = get_interval_table(cfg, "")
        print(str(table.omega))
        return 0

    if args.command == "mb":
        value = m_b(_read_bits_token(args.prefix), _read_bits_token(args.target),
                    _read_bits_token(args.cond), cfg)
        print(str(value))
        return 0

    if args.command == "k":
        result = k_t(_read_bits_token(args.x), _read_bits_token(args.cond), cfg)
        return _emit({"input": args.x, "value": result.value, "witness": result.witness})

    if args.command == "m":
        value = m_t(_read_bits_token(args.x), _read_bits_token(args.cond), cfg)
        return _emit({"input": args.x, "value": str(value), "witness": None})

    if args.command == "mset":
        members = _read_set_file(args.file)
        value = m_set(members, _read_bits_token(args.cond), cfg)
        return _emit({"input": members, "value": str(value), "witness": None})

    if args.command == "km":
        members = _read_set_file(args.file)
        if not members:
            raise _UsageError(f"{args.file}: prefix set must be nonempty")
        result = km_t(members, cfg)
        return _emit({"input": members, "value": result.value, "witness": result.witness})

    if args.command == "deficiency":
        w = _read_measure_file(args.measure, _measure_entry)
        d = deficiency(_read_bits_token(args.element), w,
                       _read_bits_token(args.cond), cfg)
        return _emit({"value": d.value, "floor_neg_log_weight": d.floor_neg_log_weight,
                      "conditional_k": d.conditional_k})

    if args.command == "stoch":
        max_v_len = args.stoch_max_v_len
        if max_v_len is None:
            max_v_len = cfg.max_program_len
        search = _bounds(max_v_len, args.stoch_fuel)
        if max_v_len > cfg.max_program_len:
            raise _UsageError(f"--max-v-len {max_v_len} exceeds "
                              f"--max-len {cfg.max_program_len}")
        res = stochasticity(
            _read_bits_token(args.element), _read_bits_token(args.cond),
            search, cfg, scoring=args.scoring,
        )
        return _emit({"value": res.value, "witness": res.witness_program,
                      "deficiency": res.deficiency.value,
                      "measure_support": list(res.witness_measure.support)})

    if args.command == "hitvec":
        # the shift stops growing once it alone passes the cap
        draws = args.c * args.d << min(args.i, HITVEC_MAX_DRAWS.bit_length()) + 1
        if draws > HITVEC_MAX_DRAWS:
            raise _UsageError(f"-i {args.i} -c {args.c} -d {args.d} asks for more than "
                              f"{HITVEC_MAX_DRAWS} draws (c*d*2^(i+1))")
        q = _read_measure_file(args.sets, _set_measure_entry)
        m = _read_measure_file(args.measure, _measure_entry)
        z = hitting_vector(q, m, args.i, args.c, args.d)
        score = hitting_score(z, q, m)
        return _emit({"elements": list(z.elements),
                      "score": f"{score.numerator}/{score.denominator}"})

    if args.command == "nu":
        table = ThetaTable.from_rows(_read_keyed(args.table, ThetaTable.parse_row).items())
        if args.nu_command == "build" and args.stages is not None:
            table = ThetaTable(
                {k: v for k, v in table.entries.items() if k[1] <= args.stages},
                args.stages,
            )
        try:
            transducer = build_nu(table)
        except ValueError as err:  # a table that breaks an invariant
            raise _UsageError(f"{args.table}: {err}") from None
        if args.nu_command == "build":
            print(transducer.serialize())
            return 0
        nu = NuFunction(transducer)
        if args.nu_command == "apply":
            print(nu.apply(_read_bits_token(args.y)))
            return 0
        if args.nu_command == "preimage":
            members = [_read_bits_token(t) for t in args.members.split(",")]
            print(preimage_count(nu, members, args.n))
            return 0

    if args.command == "predicate" and args.predicate_command == "complete":
        g = BinaryPredicate(_read_keyed(args.file, _predicate_pair))
        res = complete_extension_search(g, cfg)
        return _emit({"program": res.program, "output": res.raw_output,
                      "slack": res.bound_slack})

    if args.command == "experiment":
        reports = run_all(cfg) if args.name == "all" else run_experiment(args.name, cfg)
        payload = "".join(r.to_jsonl() for r in reports)
        if args.out:
            with _open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        failed = [r for r in reports if not r.passed]
        for rep in failed:
            for row in rep.rows:
                if row["kind"] == "assert" and not row["pass"]:
                    print(f"FAILED {rep.experiment}.{row['name']}: "
                          f"{row['lhs']} vs {row['rhs']}", file=sys.stderr)
        return 1 if failed else 0

    if args.command == "calibrate":
        measured = calibrate(cfg)
        drift = {k: (FROZEN.get(k), v) for k, v in measured.items()
                 if FROZEN.get(k) != v}
        print(json.dumps({"measured": measured, "frozen": FROZEN,
                          "drift": {k: list(v) for k, v in drift.items()}},
                         sort_keys=True))
        if args.write:
            _rewrite_frozen(measured)
        return 0 if not drift else 1

    raise SystemExit(2)


def _rewrite_frozen(measured: dict, path: str = None) -> None:
    """Rewrite each measured constant in frozen.py; a constant that is not
    written there exactly once is a usage error, and then nothing is written."""
    if path is None:
        path = frozen.__file__
    with _open(path, "r") as fh:
        text = fh.read()
    for key, value in measured.items():
        text, found = re.subn(rf'("{key}": )-?\d+', rf"\g<1>{value}", text)
        if found != 1:
            raise _UsageError(f"{path}: {key!r} is written {found} times, not once")
    with _open(path, "w") as fh:
        fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
