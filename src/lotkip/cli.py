"""Command-line entry point.

Subcommands: seal/open byte streams through a session config, reproduce the
complexity table, evaluate the energy formulas, and run network simulations.
Diagnostics go to stderr; data goes to the output file or stdout.
"""

from __future__ import annotations

import argparse
import errno
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from lotkip import codec
from lotkip.codec import (
    CodecError,
    ReceiverSession,
    SenderSession,
    container_to_frames,
    frames_to_container,
    msdu_groups,
    parse_session_config,
)


def _say(*parts: object) -> None:
    print(*parts, file=sys.stderr)


def _print_resolved(command: str, settings: dict[str, object]) -> None:
    resolved = " ".join(f"{k}={v}" for k, v in settings.items())
    _say(f"lotkip {command}: {resolved}")


def _check_output(path: str) -> None:
    """Fail before any work when the output path is a directory or its
    directory is missing."""
    if path == "-":
        return
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, "output is a directory", path)
    if not out.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such output directory",
                                str(out.parent))


def _write_output(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def cmd_table1(args: argparse.Namespace) -> int:
    from lotkip import cost

    _print_resolved("table1", {"csv": args.csv})
    _check_output(args.csv)
    _write_output(args.csv, cost.table1_csv().encode())
    _say(cost.TABLE1_NOTES)
    return 0


# ---------------------------------------------------------------------------
# seal / open
# ---------------------------------------------------------------------------

def _msdu_bytes(text: str) -> int:
    # argparse prints an ArgumentTypeError's message; any other error it
    # reports under this function's name
    error = argparse.ArgumentTypeError(
        f"must be in 1..{codec.MSDU_MAX_BYTES}, got {text}")
    try:
        value = int(text)
    except ValueError:
        raise error from None
    if not 1 <= value <= codec.MSDU_MAX_BYTES:
        raise error
    return value


def cmd_seal(args: argparse.Namespace) -> int:
    config = parse_session_config(Path(args.config).read_text(encoding="utf-8"))
    _print_resolved("seal", {
        "config": args.config, "in": getattr(args, "in"), "out": args.out,
        "mode": config.mode, "msdu_bytes": args.msdu_bytes,
        "frag_threshold": config.frag_threshold, "K": config.refresh_interval,
    })
    _check_output(args.out)
    data = Path(getattr(args, "in")).read_bytes()
    sealed = SenderSession(config).seal_many(codec.split(data, args.msdu_bytes))
    frames = [frame for msdu_frames in sealed for frame in msdu_frames]
    _write_output(args.out, frames_to_container(frames))
    _say(f"sealed {len(frames)} frames")
    return 0


def cmd_open(args: argparse.Namespace) -> int:
    config = parse_session_config(Path(args.config).read_text(encoding="utf-8"))
    _print_resolved("open", {
        "config": args.config, "in": getattr(args, "in"), "out": args.out,
        "mode": config.mode,
    })
    _check_output(args.out)
    frames = container_to_frames(Path(getattr(args, "in")).read_bytes())
    receiver = ReceiverSession(config)
    recovered = b"".join(msdu for msdu in receiver.open_many(msdu_groups(frames))
                         if msdu is not None)
    _write_output(args.out, recovered)
    _say(f"recovered {len(recovered)} bytes")
    return 0


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def cmd_energy(args: argparse.Namespace) -> int:
    from lotkip import cost

    case = cost.Case(args.case)
    first = not args.subsequent
    _print_resolved("energy", {
        "m": args.m, "case": args.case, "first_packet": first,
        "frame_bytes": args.frame_bytes,
    })
    if args.subsequent and args.case != 2:
        raise ValueError("--subsequent applies only to --case 2")
    cycles = cost.tkip_energy_cycles(args.m, case, first)
    energies = {"compute_uJ": cycles * cost.CYCLE_ENERGY_UJ}
    if args.frame_bytes is not None:
        energies["tx_uJ"] = cost.tx_energy(args.frame_bytes)
        energies["rx_uJ"] = cost.rx_energy(args.frame_bytes)
    lines = [f"cycles={cycles}"]
    lines += [f"{name}={value:.4f}" for name, value in energies.items()]
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def cmd_sim(args: argparse.Namespace) -> int:
    # the simulator is the one subcommand that needs numpy
    from lotkip import netsim

    topo_cfgs, traffic = netsim.parse_scenario_config(
        Path(args.scenario).read_text(encoding="utf-8"))
    if args.seed is not None:
        topo_cfgs = [replace(tc, seed=args.seed) for tc in topo_cfgs]
    _print_resolved("sim", {
        "scenario": args.scenario, "csv": args.csv,
        "placements": ",".join(tc.placement for tc in topo_cfgs),
        "scheme": traffic.scheme, "P": ",".join(map(str, traffic.packet_sizes)),
        "packets": traffic.packets_per_scenario,
        "scenarios": traffic.scenario_count, "K": traffic.refresh_interval,
        "ack": traffic.ack_enabled, "seed": topo_cfgs[0].seed,
    })
    _check_output(args.csv)
    results = netsim.run_experiment(topo_cfgs, traffic)
    _write_output(args.csv, netsim.emit_series(results).encode())
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_SEAL_NOTE = ("Seal a byte stream.  Every run starts at packet counter 0, so one "
             "config seals one stream: two files sealed with the same config are "
             "encrypted under the same RC4 keystreams, and XORing their "
             "ciphertexts gives the XOR of their plaintexts.  Seal each file "
             "under its own temporal key.")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process, since parsing leaves it as
    it was.  It binds no handler: `main` runs subcommand `name` as whatever
    `cmd_<name>` is when it runs, so a handler replaced after the parser
    was built (by a tracing wrapper, say) is the one called."""
    parser = argparse.ArgumentParser(
        prog="lotkip",
        description="TKIP/LOTKIP codec, cost model, and network energy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="emit the complexity decomposition table")
    p.add_argument("--csv", default="-", help="output path ('-' for stdout)")

    for name in ("seal", "open"):
        p = sub.add_parser(name, help=f"{name} a byte stream",
                           description=_SEAL_NOTE if name == "seal" else None)
        p.add_argument("--config", required=True, help="session config file")
        p.add_argument("--in", required=True, help="input file")
        p.add_argument("--out", required=True, help="output file ('-' for stdout)")
        # open reads where each MSDU ends from the container's records
        if name == "seal":
            p.add_argument("--msdu-bytes", type=_msdu_bytes,
                           default=codec.MSDU_MAX_BYTES, dest="msdu_bytes",
                           help="input chunking unit (default %(default)s)")

    p = sub.add_parser("energy", help="evaluate the per-packet energy formulas")
    p.add_argument("--m", type=int, required=True, help="bytes encrypted")
    p.add_argument("--case", type=int, choices=(1, 2), default=1)
    p.add_argument("--subsequent", action="store_true",
                   help="case 2 with the phase-1 cache already warm")
    p.add_argument("--frame-bytes", type=int, default=None, dest="frame_bytes",
                   help="also print radio tx/rx energy for this frame size")

    p = sub.add_parser("sim", help="run the network energy simulation")
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--csv", default="-", help="output path ('-' for stdout)")
    p.add_argument("--seed", type=int, default=None, help="override the seed")

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Run one subcommand; this is the CLI's only error boundary.  A failure
    of any subcommand exits 1 with one `Name: message` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    # a config or scenario file that is not UTF-8 raises UnicodeDecodeError,
    # and netsim.ScenarioError is a ValueError too
    except (CodecError, ValueError, OverflowError, OSError) as exc:
        _say(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
