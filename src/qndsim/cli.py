"""Command-line front end.

Subcommands:
  fidelity    compute the three QND fidelities from outcome distributions
  cnot-sweep  characterize the CNOT QND gate over a strength grid
  optics      simulate the post-selected linear-optical gate
  weak        post-selected weak/strong values, analytic or sampled

Parameters come from a JSON config file (``--config``) of the
subcommand's own keys and/or flags; flags override the file; ``--seed``
belongs to ``weak`` alone. A report's ``config`` is exactly the parameters
given (for ``fidelity``, with those read from its counts file), so
``qndsim <cmd> --config <saved config>`` reproduces its ``results``:
``cnot-sweep`` echoes ``gamma_points`` or ``gamma``, not the grid, and
``optics`` its given ``signal``, amplitudes and switches, not the signal
and meter states. A parameter given is type-checked, and a number must be
finite, even where the mode ignores it; only those it reads are range-checked.
Errors go to stderr as {"error": ..., "field": ...}:
exit code 2 for bad input, naming the offending field, 1 for an internal fault.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__, cnot_qnd, metrics, photonics, weakval
from .hilbert import Z_BASIS, ProbDist, PureState

GAMMA_POINTS_MAX = 10**5  # largest cnot-sweep grid: ~3 s and 330 MB as JSON on 2 vCPUs


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


def _load_object(path, field: str) -> dict:
    """The JSON object in the file at ``path``, or {} if unset; CliError
    naming ``field`` for a path that is not a string, a file that cannot be
    read or parsed, and JSON that is not an object."""
    if path is None:
        return {}
    if not isinstance(path, str):
        raise CliError(f"{field} must be a file path, got {path!r}", field)
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"could not read {field} {path!r}: {exc}", field)
    if not isinstance(obj, dict):
        raise CliError(f"{field} {path!r} must contain a JSON object", field)
    return obj


def _checked(field: str, errors, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; an exception of class ``errors`` is bad input,
    a CliError naming ``field``. Any other exception is an internal fault."""
    try:
        return fn(*args, **kwargs)
    except errors as exc:
        raise CliError(str(exc), field)


def cmd_fidelity(params: dict) -> dict:
    counts = _load_object(params["counts_file"], "counts_file")
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

    # MetricsError and HilbertError are ValueErrors
    p_in, p_m, p_out, cond = dist("p_in"), dist("p_m"), dist("p_out"), dist("conditionals")
    if p_in is None:
        raise CliError("p_in is required", "p_in")
    p_in = _checked("p_in", ValueError, ProbDist.from_weights, p_in)
    results = {}
    if p_m is not None:
        p_m = _checked("p_m", ValueError, ProbDist.from_weights, p_m)
        results["f_m"] = _checked("p_m", ValueError, metrics.measurement_fidelity, p_in, p_m)
    if p_out is not None:
        p_out = _checked("p_out", ValueError, ProbDist.from_weights, p_out)
        results["f_qnd"] = _checked("p_out", ValueError, metrics.qnd_fidelity, p_in, p_out)
    if cond is not None:
        if p_m is None:
            raise CliError("conditionals require p_m", "p_m")
        results["f_qsp"] = _checked("conditionals", ValueError, metrics.qsp_fidelity, p_m, cond)
    if not results:
        raise CliError("provide at least one of p_m, p_out", "p_m")
    return results


def _gamma_grid(params: dict) -> list[float]:
    gamma = _number(params["gamma"], "gamma")
    n = _number(params["gamma_points"], "gamma_points", int, 11)
    if gamma is not None:
        return [gamma]
    if not 1 <= n <= GAMMA_POINTS_MAX:
        raise CliError(f"gamma_points must lie in [1, {GAMMA_POINTS_MAX}], got {n}", "gamma_points")
    lo, hi = cnot_qnd.GAMMA_MIN, 1.0
    if n == 1:
        return [hi]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def cmd_cnot_sweep(params: dict) -> tuple[dict, str]:
    rows = _checked("gamma", cnot_qnd.StrengthError, cnot_qnd.strength_sweep, _gamma_grid(params))
    return {"rows": cnot_qnd.sweep_to_json(rows)}, cnot_qnd.sweep_to_csv(rows)


def cmd_optics(params: dict) -> dict:
    eta = _number(params["eta"], "eta", default=1.0 / 3.0)
    loss = _switch(params["loss"], "loss")
    alpha, beta = (_number(params[k], k, default=d) for k, d in (("alpha", 1.0), ("beta", 0.0)))
    if params["signal"] is not None:
        label = str(params["signal"]).upper()
        if label not in ("H", "V"):
            raise CliError(f"signal must be H or V, got {params['signal']}", "signal")
        signal = PureState([1, 0] if label == "H" else [0, 1])
    else:
        signal = _checked("alpha", ValueError, PureState.from_amplitudes, [alpha, beta])
    a = _number(params["strength_a"], "strength_a")
    if a is None:
        meter = _checked("eta", photonics.PhotonicsError, photonics.meter_prep, eta)
    else:
        meter = _checked("strength_a", photonics.PhotonicsError, photonics.meter_prep_strength, a)
    loss = loss or a is not None  # the variable-strength regime needs the balancing loss
    result, kraus = _checked("eta", photonics.PhotonicsError, lambda: (
        photonics.run_gate(signal, meter, eta, include_signal_loss=loss),
        photonics.heralded_kraus(meter, eta, include_signal_loss=loss),
    ))
    results = result.to_json()
    # post-selected signal/meter correlation, averaged over eigenstate inputs: C^2 = K^2,
    # since the H/V polarization observables have eigenvalues +-1
    _, pair = _checked("eta", metrics.MetricsError, metrics.kraus_figures, kraus, Z_BASIS)
    results["c2"] = pair.k**2
    return results


def cmd_weak(params: dict) -> dict:
    alpha, beta, gamma = (_number(params[key], key) for key in ("alpha", "beta", "gamma"))
    shots, seed = _number(params["shots"], "shots", int), _number(params["seed"], "seed", int)
    if alpha is None:
        raise CliError("alpha is required", "alpha")
    analytic, bound = _switch(params["analytic"], "analytic"), _switch(params["bound"], "bound")
    if bound:
        gamma_max = _checked("alpha", weakval.WeakValueError, weakval.negativity_gamma_bound, alpha)
        return {"gamma_max": gamma_max}
    if beta is None or gamma is None:
        raise CliError("beta and gamma are required", "beta" if beta is None else "gamma")
    _checked("alpha", ValueError, PureState, [alpha, beta])
    errors = (weakval.WeakValueError, cnot_qnd.StrengthError)
    plus, minus, p_plus = _checked("gamma", errors, weakval.postselected_mean_n, alpha, beta, gamma)
    results = {"analytic": {"plus_value": plus, "minus_value": minus, "p_plus": p_plus}}
    if shots is not None and not analytic:
        if seed is None:
            raise CliError("seed is required when sampling", "seed")
        for name, value, least in (("shots", shots, 1), ("seed", seed, 0)):
            if value < least:
                raise CliError(f"{name} must be >= {least}, got {value}", name)
        try:
            sampled = weakval.estimate_sampled(alpha, beta, gamma, shots, seed)
        except weakval.EmptyPostSelectionError as exc:
            raise CliError(str(exc), "shots")
        except weakval.WeakValueError as exc:  # the estimator is singular at this gamma
            raise CliError(str(exc), "gamma")
        results["sampled"] = sampled.to_json()
    return results


def _run(args: argparse.Namespace) -> int:
    """Merge flags over the config file, run the subcommand, and emit its
    report, which echoes as ``config`` the parameters that are set."""
    started = time.monotonic()
    cfg = _load_object(args.config, "config")
    unknown = sorted(set(cfg) - set(args.keys))
    if unknown:
        raise CliError(f"{args.command} takes no parameter {unknown[0]!r}", unknown[0])
    params = {k: cfg.get(k) if getattr(args, k) is None else getattr(args, k) for k in args.keys}
    out = args.func(params)
    results, csv_text = out if isinstance(out, tuple) else (out, None)
    report = {
        "config": {k: v for k, v in params.items() if v is not None},
        "version": __version__,
        "duration_s": time.monotonic() - started,
        "results": results,
    }
    text = csv_text if getattr(args, "format", None) == "csv" else json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"could not write report: {exc}", "out")
    print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", help="write the report to this path as well")

    parser = argparse.ArgumentParser(prog="qndsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        """A subcommand whose parameters are exactly ``flags``, each a
        ``(flag, add_argument keywords)`` pair."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func, keys=[p.add_argument(f, **kw).dest for f, kw in flags])
        return p

    on = {"action": "store_const", "const": True}
    command("fidelity", cmd_fidelity, "fidelities from distributions",
            ("--p-in", {"help": "comma-separated weights of the input distribution"}),
            ("--p-m", {"help": "meter outcome distribution"}),
            ("--p-out", {"help": "signal output distribution"}),
            ("--conditionals", {"help": "per-outcome conditional probabilities"}),
            ("--counts-file", {"help": "JSON file with raw counts per distribution"}))
    p = command("cnot-sweep", cmd_cnot_sweep, "strength sweep of the CNOT QND gate",
                ("--gamma", {"type": float, "help": "single strength instead of a grid"}),
                ("--gamma-points", {"type": int, "help": "grid size over [1/sqrt(2), 1],"
                                    f" at most {GAMMA_POINTS_MAX}"}))
    p.add_argument("--format", choices=["json", "csv"], help="output format")
    command("optics", cmd_optics, "post-selected optical QND gate",
            ("--signal", {"help": "eigenstate signal: H or V"}),
            ("--alpha", {"type": float, "help": "signal H amplitude"}),
            ("--beta", {"type": float, "help": "signal V amplitude"}),
            ("--eta", {"type": float, "help": "beamsplitter reflectivity (default 1/3)"}),
            ("--strength-a", {"type": float, "help": "meter strength a in [0, sqrt(3)/2]"}),
            ("--loss", {**on, "help": "include the 2/3 balancing loss"}))
    command("weak", cmd_weak, "post-selected weak values",
            ("--alpha", {"type": float}),
            ("--beta", {"type": float}),
            ("--gamma", {"type": float}),
            ("--shots", {"type": int, "help": "Monte-Carlo shots (requires --seed)"}),
            ("--analytic", {**on, "help": "closed form only"}),
            ("--bound", {**on, "help": "negativity bound on gamma"}),
            ("--seed", {"type": int, "help": "RNG seed for sampled runs"}))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc), "field": exc.field}), file=sys.stderr)
        return 2
    except Exception as exc:  # invariant breach inside a module
        print(json.dumps({"error": str(exc), "field": None}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
