"""Batch command-line front end.

Four workflows: `pattern` (radiation cut CSV + lobe metrics), `localize`
(codebook sweep traces + estimates), `linkbudget` (received-power report),
and `export-frame` (shift-chain bitstream). Every command is deterministic
for fixed config, flags, and seed. Exit codes: 0 success, 2 configuration
error, 3 domain error.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import sys
from dataclasses import asdict, replace

import click

from .errors import ConfigError, DomainError


def _workflow(func):
    """Map domain/config failures, and unwritable outputs, to the documented exit codes."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except DomainError as exc:
            click.echo(f"domain error: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:  # load_config maps its own read errors: this is an --out write
            click.echo(f"config error: cannot write output: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _output_base(out: str, suffix: str = "") -> str:
    """--out less a trailing suffix, checked before any compute: a base whose last
    path component is empty ("", "sub/") would name hidden files such as sub/.csv."""
    base = out.removesuffix(suffix)
    if not os.path.basename(base):
        raise ConfigError(f"--out {out!r} gives an empty file name")
    return base


def _metric(value: float, spec: str, unit: str) -> str:
    """A metric on a stdout line: null, with no unit, where the metrics file writes null."""
    return f"{value:{spec}} {unit}" if math.isfinite(value) else "null"


def _steering_mask(cfg, mode: str, steer: float):
    """The 1-bit mask steering to the signed --steer angle, degrees."""
    from .geometry import Direction
    from .masks import farfield_steering_mask, nearfield_steering_mask

    steer_dir = Direction.from_signed_theta(steer)
    if mode == "near":
        return nearfield_steering_mask(cfg.geometry, cfg.feed.position, steer_dir, cfg.wavelength)
    return farfield_steering_mask(cfg.geometry, steer_dir, cfg.wavelength)


@click.group()
def main() -> None:
    """Simulator for a 1-bit coding reconfigurable intelligent surface."""


@main.command("pattern")
@click.option("--config", "config_path", type=click.Path(), default=None, help="Scenario YAML.")
@click.option("--mode", type=click.Choice(["far", "near"]), default="far", show_default=True)
@click.option("--steer", type=float, default=0.0, show_default=True, help="Steer angle, degrees.")
@click.option("--out", default="pattern.csv", show_default=True, help="Output CSV path.")
@_workflow
def cmd_pattern(config_path, mode, steer, out) -> None:
    """Compute a radiation cut for a 1-bit steering mask."""
    from .config import load_config
    from .geometry import Direction
    from .output import write_json
    from .patterns import (
        array_factor_far,
        default_theta_grid,
        pattern_metrics,
        pattern_nearfield,
        write_pattern_csv,
    )

    base = _output_base(out, ".csv")
    csv_path, json_path = base + ".csv", base + ".metrics.json"
    cfg = load_config(config_path)
    mask = _steering_mask(cfg, mode, steer)
    geom, cell = cfg.geometry, cfg.cell
    grid = default_theta_grid()
    if mode == "near":
        cut = pattern_nearfield(geom, mask, cell, cfg.feed, cell.q_e, 0.0, grid, cfg.wavelength)
    else:
        cut = array_factor_far(geom, mask, cell, Direction(0.0), 0.0, grid, cfg.wavelength)
    metrics = pattern_metrics(cut)
    write_pattern_csv(
        cut,
        csv_path,
        {
            "mode": mode,
            "steer_deg": steer,
            "phi_plane_deg": 0.0,
            "frequency_hz": cfg.frequency_hz,
        },
    )
    # metrics a degenerate or delta-like cut leaves undefined are written as null
    write_json({"mode": mode, "steer_deg": steer, **asdict(metrics)}, json_path)
    click.echo(
        f"{mode} cut steered to {steer:g} deg: main lobe {_metric(metrics.main_lobe_deg, 'g', 'deg')}, "
        f"mirror {_metric(metrics.mirror_lobe_db, '.2f', 'dB')}, "
        f"SLL {_metric(metrics.sidelobe_level_db, '.2f', 'dB')} -> {csv_path}"
    )


@main.command("localize")
@click.option("--config", "config_path", type=click.Path(), default=None, help="Scenario YAML.")
@click.option("--truths", default="30,45", show_default=True, help="Comma-separated true angles.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the sweep seed.")
@click.option("--out", default="localize", show_default=True, help="Output base path.")
@_workflow
def cmd_localize(config_path, truths, seed, out) -> None:
    """Sweep the codebook against each true user angle and estimate it."""
    from .config import load_config
    from .geometry import Direction
    from .localization import estimate_angle, rmse, simulate_sweep, write_sweep_csv
    from .output import write_json

    out = _output_base(out)
    cfg = load_config(config_path)
    if seed is not None:
        cfg = replace(cfg, sweep=replace(cfg.sweep, seed=seed))
    try:
        truth_values = [float(t) for t in truths.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --truths {truths!r}: {exc}") from exc
    if not truth_values:
        raise ConfigError("--truths must name at least one angle")
    names = [f"{t:g}" for t in truth_values]
    if len(set(names)) != len(names):
        raise ConfigError(f"--truths {truths!r} gives two angles the same output file")
    sweep = cfg.sweep
    for t in truth_values:
        if not (sweep.start_deg <= t <= sweep.stop_deg):
            raise DomainError(
                f"truth {t:g} outside the codebook field of view "
                f"[{sweep.start_deg:g}, {sweep.stop_deg:g}]"
            )
    codebook = cfg.steering_codebook()
    scenario, noise = cfg.link, sweep.noise
    # distinct deterministic substream per truth; every truth is swept before
    # any file is written, so a failing truth leaves no partial output
    seeds = [sweep.seed + i for i in range(len(truth_values))]
    traces = [
        simulate_sweep(codebook, Direction(truth), scenario, noise, seed=truth_seed)
        for truth, truth_seed in zip(truth_values, seeds)
    ]
    estimates = [estimate_angle(trace) for trace in traces]
    for truth, truth_seed, trace in zip(truth_values, seeds, traces):
        write_sweep_csv(
            trace,
            f"{out}.truth{truth:g}.csv",
            {
                "truth_deg": truth,
                "seed": truth_seed,
                "noise": f"{noise.kind} (sigma_db={noise.sigma_db:g})",
            },
        )
    errors = [e - t for e, t in zip(estimates, truth_values)]
    summary = {
        "truths_deg": truth_values,
        "estimates_deg": estimates,
        "errors_deg": errors,
        "rmse_deg": rmse(estimates, truth_values),
        "codebook": {
            "start_deg": sweep.start_deg,
            "stop_deg": sweep.stop_deg,
            "step_deg": sweep.step_deg,
            "entries": len(codebook),
        },
        "noise": {"kind": noise.kind, "sigma_db": noise.sigma_db},
        "seed": sweep.seed,
    }
    write_json(summary, f"{out}.summary.json")
    for truth, est, err in zip(truth_values, estimates, errors):
        click.echo(f"truth {truth:6.2f} deg -> estimate {est:6.2f} deg (error {err:+.2f})")
    click.echo(f"rmse {summary['rmse_deg']:.3f} deg -> {out}.summary.json")


@main.command("linkbudget")
@click.option("--config", "config_path", type=click.Path(), default=None, help="Scenario YAML.")
@click.option("--out", default="linkbudget.json", show_default=True, help="Output JSON path.")
@_workflow
def cmd_linkbudget(config_path, out) -> None:
    """Received-power accounting for the configured scenario."""
    from .config import load_config
    from .linkbudget import received_power
    from .output import write_json

    cfg = load_config(config_path)
    report = received_power(cfg.link)
    write_json(report.to_dict(), out)
    click.echo(report.table())
    click.echo(f"-> {out}")


@main.command("export-frame")
@click.option("--config", "config_path", type=click.Path(), default=None, help="Scenario YAML.")
@click.option("--mode", type=click.Choice(["far", "near"]), default="far", show_default=True)
@click.option("--steer", type=float, default=0.0, show_default=True, help="Steer angle, degrees.")
@click.option("--out", default="frame.hex", show_default=True, help="Output frame path.")
@_workflow
def cmd_export_frame(config_path, mode, steer, out) -> None:
    """Serialize a steering mask into the 20-octet shift-chain frame."""
    from .config import load_config
    from .hardware import serialize_mask, write_frame

    cfg = load_config(config_path)
    frame = serialize_mask(_steering_mask(cfg, mode, steer))
    write_frame(
        frame,
        out,
        {"mode": mode, "steer_deg": steer, "frequency_hz": cfg.frequency_hz},
    )
    click.echo(f"{frame.to_hex()} -> {out}")


def run() -> None:
    """Process entry: `main` standalone with the cyclic collector off, then
    `os._exit` with its code once stdout and stderr are flushed. Every
    output file is closed before `main` returns, so the process skips the
    interpreter's teardown: module teardown, numpy's BLAS thread shutdown
    and the atexit chain, none of which a finished command needs. Library
    callers use `main`, which touches neither the collector nor the process."""
    gc.disable()
    try:
        main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
