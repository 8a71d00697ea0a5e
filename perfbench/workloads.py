"""The benchmark's four workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one client. `inputs(seed)` yields the
op inputs; the same seed yields the same sequence. `op(inp)` is the timed
work. `outputs(result)` returns the op's output files (or bytes) by name and
`check(inp, result, outputs)` returns the failed checks, both untimed.
`risim` is imported only in `setup`, so the `cli` workload's own process
never loads it before its timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

# acceptance criterion 02: default link budget
LINK_DBM, LINK_SNR_DB, LINK_TOL_DB = -43.87, 50.1, 0.5
ACCOUNTING_MODES = ("analytic", "mask", "single_pass", "none")


def strict_json(data: bytes):
    """Parse JSON, rejecting the non-standard NaN and Infinity constants."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(data, parse_constant=reject)


def take_outputs(directory: Path) -> dict[str, bytes]:
    """Read and remove every file an op wrote into `directory`."""
    files = {}
    for path in sorted(directory.iterdir()):
        if path.is_file():
            files[path.name] = path.read_bytes()
            path.unlink()
    return files


def _json_failures(outputs: dict[str, bytes]) -> list[str]:
    failures = []
    for name, data in outputs.items():
        if name.endswith(".json"):
            try:
                strict_json(data)
            except ValueError as exc:
                failures.append(f"{name} is not strict JSON: {exc}")
    return failures


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _signed_steer(rng: random.Random) -> float:
    return round(rng.choice((-1, 1)) * rng.uniform(5.0, 60.0), 3)


class Workload:
    name = ""
    trace_ops = 10  # ops in the fixed op list of a traced run
    subprocess_ops = False  # True when `op` starts a child process
    reference = "calls"  # the calibrate.py reading paired with each op

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        k = 0
        while True:
            yield self.make_input(rng, k)
            k += 1

    def make_input(self, rng: random.Random, k: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def op(self, inp: dict):
        raise NotImplementedError

    def traced_op(self, inp: dict):
        """The in-process op that a traced run times and traces."""
        return self.op(inp)

    def outputs(self, result) -> dict[str, bytes]:
        return take_outputs(self.workdir)

    def check(self, inp: dict, result, outputs: dict[str, bytes]) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------- cli


@dataclass
class CliResult:
    returncode: int
    stderr: bytes
    outdir: Path
    maxrss_kb: int = 0


class CliWorkload(Workload):
    """One `python -m risim.cli ...` subprocess per op, cycling through the
    five README commands with seeded angles and the default config."""

    name = "cli"
    trace_ops = 10
    subprocess_ops = True
    reference = "spawn"
    FILES = {"pattern-far": 2, "pattern-near": 2, "localize": 3, "linkbudget": 1, "export-frame": 1}
    KINDS = tuple(FILES)

    def make_input(self, rng, k):
        kind = self.KINDS[k % len(self.KINDS)]
        inp = {"kind": kind}
        if kind.startswith("pattern"):
            inp["steer"] = _signed_steer(rng)
        elif kind == "localize":
            a = round(rng.uniform(0.0, 60.0), 3)
            b = a
            while b == a:
                b = round(rng.uniform(0.0, 60.0), 3)
            inp["truths"] = (a, b)
            inp["seed"] = rng.randrange(2**31)
        elif kind == "export-frame":
            inp["mode"] = rng.choice(("far", "near"))
            inp["steer"] = _signed_steer(rng)
        return inp

    @staticmethod
    def args(inp: dict, outdir: Path) -> list[str]:
        kind = inp["kind"]
        if kind.startswith("pattern"):
            mode = kind.split("-")[1]
            return ["pattern", "--mode", mode, f"--steer={inp['steer']!r}", "--out", str(outdir / "cut.csv")]
        if kind == "localize":
            truths = ",".join(repr(t) for t in inp["truths"])
            return ["localize", "--truths", truths, "--seed", str(inp["seed"]), "--out", str(outdir / "loc")]
        if kind == "linkbudget":
            return ["linkbudget", "--out", str(outdir / "linkbudget.json")]
        return ["export-frame", "--mode", inp["mode"], f"--steer={inp['steer']!r}", "--out", str(outdir / "frame.hex")]

    def setup(self) -> None:
        super().setup()
        self.outdir = self.workdir / "out"
        self.refdir = self.workdir / "ref"
        self.outdir.mkdir(exist_ok=True)
        self.refdir.mkdir(exist_ok=True)
        self.stderr_path = self.workdir / "stderr.txt"
        self.env = child_env(self.root)

    def op(self, inp):
        cmd = [sys.executable, "-m", "risim.cli", *self.args(inp, self.outdir)]
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, self.stderr_path.read_bytes(), self.outdir, usage.ru_maxrss)

    def traced_op(self, inp):
        """The same command in-process through `risim.cli.main`."""
        import risim.cli

        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                risim.cli.main(self.args(inp, self.refdir), standalone_mode=False, prog_name="risim")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        return CliResult(code, err.getvalue().encode(), self.refdir)

    def outputs(self, result):
        return take_outputs(result.outdir)

    def check(self, inp, result, outputs):
        failures = []
        if result.returncode != 0:
            failures.append(f"exit code {result.returncode}")
        if b"Traceback" in result.stderr:
            failures.append("traceback on stderr")
        if len(outputs) != self.FILES[inp["kind"]]:
            failures.append(f"{inp['kind']} wrote {sorted(outputs)}")
        failures += _json_failures(outputs)
        if "linkbudget.json" in outputs and not failures:
            doc = strict_json(outputs["linkbudget.json"])
            p, s = doc["received_power_dbm"], doc["snr_db"]
            if not (abs(p - LINK_DBM) <= LINK_TOL_DB and abs(s - LINK_SNR_DB) <= LINK_TOL_DB):
                failures.append(f"link budget {p} dBm, SNR {s} dB outside criterion 02")
        if "frame.hex" in outputs:
            failures += self._frame_roundtrip(outputs["frame.hex"])
        return failures

    def _frame_roundtrip(self, data: bytes) -> list[str]:
        from risim import hardware

        path = self.workdir / "roundtrip.hex"
        path.write_bytes(data)
        try:
            frame = hardware.read_frame(path)
            again = hardware.serialize_mask(hardware.deserialize_frame(frame))
        except Exception as exc:  # any failure here is a failed check, not a crash
            return [f"frame does not round-trip: {exc!r}"]
        finally:
            path.unlink()
        return [] if again.octets == frame.octets else ["frame round-trip changed the octets"]

    def reference_outputs(self, inp) -> dict[str, bytes]:
        """Output files of the same command run in-process."""
        return self.outputs(self.traced_op(inp))


# ---------------------------------------------------------------- sweep


@dataclass
class SweepResult:
    codebook: object
    scenario: object
    truths: tuple
    traces: list
    estimates: list


class SweepWorkload(Workload):
    """One in-process localization job shaped like `risim localize`: seeded
    codebook step, one noiseless and one 1 dB gaussian truth."""

    name = "sweep"
    trace_ops = 10

    def make_input(self, rng, k):
        return {
            "step_deg": round(rng.uniform(1.0, 1.5), 4),
            "truths": (round(rng.uniform(0.0, 60.0), 3), round(rng.uniform(0.0, 60.0), 3)),
            "seed": rng.randrange(2**31),
        }

    def setup(self) -> None:
        super().setup()
        from risim import config, geometry, linkbudget, localization

        self.config, self.geometry, self.linkbudget, self.localization = (
            config, geometry, linkbudget, localization,
        )

    def op(self, inp):
        env = {
            "RISIM_SWEEP_STEP_DEG": repr(inp["step_deg"]),
            "RISIM_SWEEP_NOISE_KIND": "gaussian_db",
            "RISIM_SWEEP_SIGMA_DB": "1.0",
            "RISIM_SWEEP_SEED": str(inp["seed"]),
        }
        loc = self.localization
        cfg = self.config.load_config(None, env=env)
        codebook = cfg.steering_codebook()
        scenario = cfg.link_scenario()
        noises = (loc.NoiseModel(), cfg.noise_model())
        traces, estimates = [], []
        for i, (truth, noise) in enumerate(zip(inp["truths"], noises)):
            truth_seed = cfg.sweep.seed + i
            trace = loc.simulate_sweep(
                codebook, self.geometry.Direction(truth), scenario, noise, seed=truth_seed
            )
            traces.append(trace)
            estimates.append(loc.estimate_angle(trace))
            loc.write_sweep_csv(
                trace,
                self.workdir / f"sweep.truth{i}.csv",
                {"truth_deg": truth, "seed": truth_seed, "noise": f"{noise.kind} (sigma_db={noise.sigma_db:g})"},
            )
        truths = list(inp["truths"])
        summary = {
            "truths_deg": truths,
            "estimates_deg": estimates,
            "errors_deg": [e - t for e, t in zip(estimates, truths)],
            "rmse_deg": loc.rmse(estimates, truths),
            "codebook": {"step_deg": cfg.sweep.step_deg, "entries": len(codebook)},
            "seed": cfg.sweep.seed,
        }
        with open(self.workdir / "sweep.summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        return SweepResult(codebook, scenario, inp["truths"], traces, estimates)

    def check(self, inp, result, outputs):
        failures = _json_failures(outputs)
        angles = set(result.codebook.angles_deg().tolist())
        for truth, trace, est in zip(result.truths, result.traces, result.estimates):
            if not all(math.isfinite(r) for r in trace.rssi_dbm.tolist()):
                failures.append(f"truth {truth}: non-finite RSSI")
            if est not in angles:
                failures.append(f"truth {truth}: estimate {est} is not a codebook angle")
        # criterion 08 on the noiseless truth: argmax RSSI equals a direct recompute
        truth, trace = result.truths[0], result.traces[0]
        idx = int(trace.rssi_dbm.argmax())
        scenario = result.scenario.with_rx(
            self.localization.ue_point(self.geometry.Direction(truth), result.scenario)
        ).with_mask(result.codebook.entries[idx].mask)
        redo = self.linkbudget.received_power(scenario, quantization="single_pass").received_power_dbm
        if trace.rssi_dbm[idx] != redo:
            failures.append(f"truth {truth}: argmax RSSI {trace.rssi_dbm[idx]!r} != recompute {redo!r}")
        return failures


# ---------------------------------------------------------------- cuts


@dataclass
class CutResult:
    mode: str
    cut: object
    metrics: object


class CutsWorkload(Workload):
    """One in-process job shaped like `risim pattern`: a 1-bit mask toward a
    seeded steer angle, alternating far and near, on the 721-point grid."""

    name = "cuts"
    trace_ops = 20
    reference = "bulk"

    def make_input(self, rng, k):
        return {"mode": ("far", "near")[k % 2], "steer": _signed_steer(rng)}

    def setup(self) -> None:
        super().setup()
        from risim import config, geometry, masks, patterns

        self.geometry, self.masks, self.patterns = geometry, masks, patterns
        cfg = config.load_config()
        self.cfg = cfg
        self.geom = cfg.array_geometry()
        self.feed = cfg.feed_spec()
        self.cell = cfg.unit_cell()

    def op(self, inp):
        cfg, geom, pat, mode = self.cfg, self.geom, self.patterns, inp["mode"]
        steer = self.geometry.Direction.from_signed_theta(inp["steer"])
        grid = pat.default_theta_grid()
        if mode == "near":
            mask = self.masks.nearfield_steering_mask(geom, self.feed.position, steer, cfg.wavelength)
            cut = pat.pattern_nearfield(geom, mask, self.cell, self.feed, cfg.cell.q_e, 0.0, grid, cfg.wavelength)
        else:
            mask = self.masks.farfield_steering_mask(geom, steer, cfg.wavelength)
            cut = pat.array_factor_far(
                geom, mask, self.cell, self.geometry.Direction(0.0), 0.0, grid, cfg.wavelength
            )
        metrics = pat.pattern_metrics(cut)
        pat.write_pattern_csv(
            cut,
            self.workdir / "cut.csv",
            {"mode": mode, "steer_deg": inp["steer"], "phi_plane_deg": 0.0, "frequency_hz": cfg.frequency_hz},
        )
        with open(self.workdir / "cut.metrics.json", "w") as fh:
            json.dump(
                {
                    "mode": mode,
                    "steer_deg": inp["steer"],
                    "main_lobe_deg": metrics.main_lobe_deg,
                    "peak_db_raw": metrics.peak_db_raw,
                    "mirror_lobe_db": metrics.mirror_lobe_db,
                    "sidelobe_level_db": metrics.sidelobe_level_db,
                    "degenerate": metrics.degenerate,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        return CutResult(mode, cut, metrics)

    def check(self, inp, result, outputs):
        failures = _json_failures(outputs)
        cut, m = result.cut, result.metrics
        if cut.gain_db.max() != 0.0:
            failures.append(f"gain peak {cut.gain_db.max()!r} dB, not exactly 0")
        if result.mode == "far":
            mags = abs(cut.field)
            asym = float(abs(mags - mags[::-1]).max() / mags.max())
            if asym > 1e-9:
                failures.append(f"far cut mirror asymmetry {asym:.3e} > 1e-9")
        values = (m.main_lobe_deg, m.peak_db_raw, m.mirror_lobe_db, m.sidelobe_level_db)
        if m.degenerate or not all(math.isfinite(v) for v in values):
            failures.append(f"degenerate metrics {m}")
        return failures


# ---------------------------------------------------------------- coverage


@dataclass
class CoverageResult:
    reports: dict


class CoverageWorkload(Workload):
    """One point of a received-power map: a near-field steering mask toward a
    seeded rx position and `received_power` in all four accounting modes."""

    name = "coverage"
    trace_ops = 100

    def make_input(self, rng, k):
        return {"theta_deg": round(rng.uniform(0.0, 60.0), 3), "range_m": round(rng.uniform(1.0, 10.0), 3)}

    def setup(self) -> None:
        super().setup()
        from risim import config, geometry, linkbudget, masks

        self.geometry, self.linkbudget, self.masks = geometry, linkbudget, masks
        cfg = config.load_config()
        self.cfg = cfg
        self.geom = cfg.array_geometry()
        self.feed = cfg.feed_spec().position
        self.base = cfg.link_scenario()
        self.l_pe_db = 20.0 * math.log10(2.0 / math.pi)

    def op(self, inp):
        g = self.geometry
        th = math.radians(inp["theta_deg"])
        c = self.geom.center()
        rx = g.Point3(c.x + inp["range_m"] * math.sin(th), c.y, c.z + inp["range_m"] * math.cos(th))
        mask = self.masks.nearfield_steering_mask(
            self.geom, self.feed, g.Direction(inp["theta_deg"]), self.cfg.wavelength
        )
        scenario = self.base.with_rx(rx).with_mask(mask)
        return CoverageResult(
            {q: self.linkbudget.received_power(scenario, quantization=q) for q in ACCOUNTING_MODES}
        )

    def outputs(self, result):
        return {q: r.to_json().encode() for q, r in result.reports.items()}

    def check(self, inp, result, outputs):
        failures = []
        p = {q: r.received_power_dbm for q, r in result.reports.items()}
        for q in ("single_pass", "mask"):
            if not p[q] <= p["none"] + 1e-9:
                failures.append(f"{q} {p[q]!r} dBm above ideal {p['none']!r}")
        if abs(p["analytic"] - (p["none"] + self.l_pe_db)) > 1e-9:
            failures.append(f"analytic {p['analytic']!r} != none + 20log10(2/pi)")
        for q, r in result.reports.items():
            if abs(sum(r.terms_db.values()) - r.received_power_dbm) > 1e-9:
                failures.append(f"{q}: terms_db do not sum to received_power_dbm")
        return failures


WORKLOADS = {w.name: w for w in (CliWorkload, SweepWorkload, CutsWorkload, CoverageWorkload)}
