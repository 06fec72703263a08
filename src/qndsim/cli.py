"""Command-line front end.

Subcommands:
  fidelity    compute the three QND fidelities from outcome distributions
  cnot-sweep  characterize the CNOT QND gate over a strength grid
  optics      simulate the post-selected linear-optical gate
  weak        post-selected weak/strong values, analytic or sampled

Parameters come from a JSON config file (``--config``) and/or flags;
flags override the file. Reports echo the fully resolved config so a run
can be reproduced from its own output. Errors are emitted as a JSON
object {"error": ..., "field": ...} on stderr: exit code 2 for bad input,
naming the offending field, and 1 for an internal fault.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__, cnot_qnd, metrics, photonics, weakval
from .hilbert import Z_BASIS, ProbDist, PureState


class CliError(Exception):
    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _number(value, field: str, kind=float, default=None):
    """``kind(value)``, or ``default`` if unset; CliError naming ``field`` for a
    value of the wrong type (a boolean included), for floats one that is not
    finite, and for ints one that is not integral."""
    if value is None:
        return default
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or fraction:
        raise CliError(f"{field} must be {kind.__name__}, got {value!r}", field)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"{field} must be {kind.__name__}, got {value!r}", field)
    if kind is float and not math.isfinite(out):
        raise CliError(f"{field} must be finite, got {value!r}", field)
    return out


def _switch(value, field: str) -> bool:
    """An on/off parameter: False if unset; CliError naming ``field`` for
    anything but a boolean."""
    if value is None:
        return False
    if not isinstance(value, bool):
        raise CliError(f"{field} must be true or false, got {value!r}", field)
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"could not read config file: {exc}", "config")
    if not isinstance(cfg, dict):
        raise CliError("config file must contain a JSON object", "config")
    return cfg


def _resolve(cfg: dict, args: argparse.Namespace, keys: list[str]) -> dict:
    """Merge config-file values with flags; flags win when given."""
    out = {}
    for key in keys:
        flag = getattr(args, key.replace("-", "_"), None)
        out[key] = flag if flag is not None else cfg.get(key)
    return out


def _emit(report: dict, args: argparse.Namespace, csv_text: str | None = None) -> None:
    fmt = getattr(args, "format", None) or "json"
    if fmt == "csv" and csv_text is not None:
        text = csv_text
    else:
        text = json.dumps(report, indent=2)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"could not write report: {exc}", "out")
    print(text)


def _report(config: dict, results: dict, started: float) -> dict:
    return {
        "config": config,
        "version": __version__,
        "duration_s": time.monotonic() - started,
        "results": results,
    }


def cmd_fidelity(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    params = _resolve(cfg, args, ["p_in", "p_m", "p_out", "conditionals", "counts_file"])
    if params["counts_file"]:
        try:
            with open(params["counts_file"]) as fh:
                counts = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"could not read counts file: {exc}", "counts_file")
        for key in ("p_in", "p_m", "p_out", "conditionals"):
            if params[key] is None and key in counts:
                params[key] = counts[key]

    def dist(key):
        v = params[key]
        if v is None:
            return None
        if isinstance(v, str):
            v = [x for x in v.split(",") if x.strip() != ""]
        if not isinstance(v, list) or not v:
            raise CliError(f"malformed distribution for {key}", key)
        return [_number(x, key) for x in v]

    def checked(field, fn, *args):
        """``fn(*args)``; a bad value is a CliError naming ``field``."""
        try:
            return fn(*args)
        except ValueError as exc:  # MetricsError and HilbertError included
            raise CliError(str(exc), field)

    p_in, p_m, p_out, cond = dist("p_in"), dist("p_m"), dist("p_out"), dist("conditionals")
    if p_in is None:
        raise CliError("p_in is required", "p_in")
    p_in = checked("p_in", ProbDist.from_weights, p_in)
    results = {}
    if p_m is not None:
        p_m = checked("p_m", ProbDist.from_weights, p_m)
        results["f_m"] = checked("p_m", metrics.measurement_fidelity, p_in, p_m)
    if p_out is not None:
        p_out = checked("p_out", ProbDist.from_weights, p_out)
        results["f_qnd"] = checked("p_out", metrics.qnd_fidelity, p_in, p_out)
    if cond is not None:
        if p_m is None:
            raise CliError("conditionals require p_m", "p_m")
        results["f_qsp"] = checked("conditionals", metrics.qsp_fidelity, p_m, cond)
    if not results:
        raise CliError("provide at least one of p_m, p_out", "p_m")
    config = {k: v for k, v in params.items() if v is not None}
    _emit(_report(config, results, started), args)
    return 0


def _gamma_grid(params: dict) -> list[float]:
    if params["gamma"] is not None:
        return [_number(params["gamma"], "gamma")]
    n = _number(params["gamma_points"], "gamma_points", int, 11)
    if n < 1:
        raise CliError("gamma_points must be >= 1", "gamma_points")
    lo, hi = cnot_qnd.GAMMA_MIN, 1.0
    if n == 1:
        return [hi]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def cmd_cnot_sweep(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    params = _resolve(cfg, args, ["gamma", "gamma_points"])
    grid = _gamma_grid(params)
    try:
        rows = cnot_qnd.strength_sweep(grid)
    except cnot_qnd.StrengthError as exc:
        raise CliError(str(exc), "gamma")
    config = {"gamma_grid": grid}
    report = _report(config, {"rows": cnot_qnd.sweep_to_json(rows)}, started)
    _emit(report, args, csv_text=cnot_qnd.sweep_to_csv(rows))
    return 0


def cmd_optics(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    params = _resolve(
        cfg, args, ["signal", "alpha", "beta", "eta", "strength_a", "loss"]
    )
    eta = _number(params["eta"], "eta", default=1.0 / 3.0)
    loss = _switch(params["loss"], "loss")
    if params["signal"] is not None:
        label = str(params["signal"]).upper()
        if label not in ("H", "V"):
            raise CliError(f"signal must be H or V, got {params['signal']}", "signal")
        signal = PureState((2,), [1, 0] if label == "H" else [0, 1])
    else:
        alpha = _number(params["alpha"], "alpha", default=1.0)
        beta = _number(params["beta"], "beta", default=0.0)
        try:
            signal = PureState.from_amplitudes([alpha, beta], dims=(2,))
        except ValueError as exc:
            raise CliError(str(exc), "alpha")
    a = _number(params["strength_a"], "strength_a")
    try:
        meter = photonics.meter_prep(eta) if a is None else photonics.meter_prep_strength(a)
    except photonics.PhotonicsError as exc:
        raise CliError(str(exc), "eta" if a is None else "strength_a")
    loss = loss or a is not None  # the variable-strength regime needs the balancing loss
    try:
        result = photonics.run_gate(signal, meter, eta, include_signal_loss=loss)
        kraus = photonics.heralded_kraus(meter, eta, include_signal_loss=loss)
    except photonics.PhotonicsError as exc:
        raise CliError(str(exc), "eta")

    results = result.to_json()
    # post-selected signal/meter correlation, averaged over eigenstate inputs
    joint, _ = metrics.kraus_figures(kraus, Z_BASIS)
    results["c2"] = metrics.correlation_c2(joint)
    config = {
        "eta": eta,
        "loss": loss,
        "signal": signal.to_json(),
        "meter": meter.to_json(),
        "strength_a": params["strength_a"],
    }
    _emit(_report(config, results, started), args)
    return 0


def cmd_weak(args: argparse.Namespace) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    params = _resolve(
        cfg, args, ["alpha", "beta", "gamma", "shots", "analytic", "bound"]
    )
    alpha = _number(params["alpha"], "alpha")
    if alpha is None:
        raise CliError("alpha is required", "alpha")
    analytic, bound = _switch(params["analytic"], "analytic"), _switch(params["bound"], "bound")
    results: dict = {}
    if bound:
        try:
            results["gamma_max"] = weakval.negativity_gamma_bound(alpha)
        except weakval.WeakValueError as exc:
            raise CliError(str(exc), "alpha")
    else:
        beta, gamma = _number(params["beta"], "beta"), _number(params["gamma"], "gamma")
        if beta is None or gamma is None:
            raise CliError("beta and gamma are required", "gamma")
        try:
            PureState((2,), [alpha, beta])
        except ValueError as exc:
            raise CliError(str(exc), "alpha")
        try:
            plus, minus, p_plus = weakval.postselected_mean_n(alpha, beta, gamma)
        except (weakval.WeakValueError, cnot_qnd.StrengthError) as exc:
            raise CliError(str(exc), "gamma")
        results["analytic"] = {"plus_value": plus, "minus_value": minus, "p_plus": p_plus}
        shots = _number(params["shots"], "shots", int)
        if shots is not None and not analytic:
            seed = args.seed if args.seed is not None else _number(cfg.get("seed"), "seed", int)
            if seed is None:
                raise CliError("seed is required when sampling", "seed")
            if seed < 0:
                raise CliError(f"seed must be >= 0, got {seed}", "seed")
            try:
                sampled = weakval.estimate_sampled(alpha, beta, gamma, shots, seed)
            except weakval.WeakValueError as exc:
                raise CliError(str(exc), "shots")
            results["sampled"] = sampled.to_json()
    config = {k: v for k, v in params.items() if v is not None}
    if args.seed is not None:
        config["seed"] = args.seed
    _emit(_report(config, results, started), args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", help="write the report to this path as well")
    common.add_argument("--seed", type=int, help="RNG seed for sampled runs")

    parser = argparse.ArgumentParser(prog="qndsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", parents=[common], help="fidelities from distributions")
    p.add_argument("--p-in", help="comma-separated weights of the input distribution")
    p.add_argument("--p-m", help="meter outcome distribution")
    p.add_argument("--p-out", help="signal output distribution")
    p.add_argument("--conditionals", help="per-outcome conditional probabilities")
    p.add_argument("--counts-file", help="JSON file with raw counts per distribution")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("cnot-sweep", parents=[common], help="strength sweep of the CNOT QND gate")
    p.add_argument("--gamma", type=float, help="single strength instead of a grid")
    p.add_argument("--gamma-points", type=int, help="grid size over [1/sqrt(2), 1]")
    p.add_argument("--format", choices=["json", "csv"], help="output format")
    p.set_defaults(func=cmd_cnot_sweep)

    p = sub.add_parser("optics", parents=[common], help="post-selected optical QND gate")
    p.add_argument("--signal", help="eigenstate signal: H or V")
    p.add_argument("--alpha", type=float, help="signal H amplitude")
    p.add_argument("--beta", type=float, help="signal V amplitude")
    p.add_argument("--eta", type=float, help="beamsplitter reflectivity (default 1/3)")
    p.add_argument("--strength-a", type=float, help="meter strength a in [0, sqrt(3)/2]")
    p.add_argument("--loss", action="store_const", const=True, help="include the 2/3 balancing loss")
    p.set_defaults(func=cmd_optics)

    p = sub.add_parser("weak", parents=[common], help="post-selected weak values")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--shots", type=int, help="Monte-Carlo shots (requires --seed)")
    p.add_argument("--analytic", action="store_const", const=True, help="closed form only")
    p.add_argument("--bound", action="store_const", const=True, help="negativity bound on gamma")
    p.set_defaults(func=cmd_weak)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc), "field": exc.field}), file=sys.stderr)
        return 2
    except Exception as exc:  # invariant breach inside a module
        print(json.dumps({"error": str(exc), "field": None}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
