"""The benchmark's workloads: inputs, set-up, timed rounds and output checks.

Every call into rawnetlite goes through a module attribute (`train_eval.train`,
never `from rawnetlite.train_eval import train`), so the tracer's rebinding
reaches it. A workload has one or more timed phases, each with a share of
the window; the runner interleaves their rounds. Outputs a check needs are
kept from each round and checked outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from rawnetlite import audio_io, augment, cli, data_pipeline, losses_metrics, model, train_eval

import corpus

PAPER_BATCH = 4        # batch 16 needs ~7.2 GB at the paper config
PAPER_STEPS = 1        # optimizer steps per train() call
EVAL_BATCH = 16        # the default of 64 needs ~14 GB at the paper config
EVAL_CLIPS = 16
INFER_FILES = 8
INGEST_FILES = 128
MALFORMED_EVERY = 8    # 1 file in 8 is malformed on purpose
INGEST_BATCH = 16
AUG_EPOCH = 1

LOSS_RTOL = 1e-4       # float32 train and post-step val loss vs the float64 replay, relative
FD_STEP = 1e-6         # finite-difference step along the per-tensor unit gradient
FD_RTOL = 1e-3         # finite difference vs backward's directional derivative, relative
GRAD_RESOLVED = 1e-2   # share of a tensor's largest |gradient| above which float32 must agree on its sign
GRAD_FLOOR = 1e-6      # ... and the |gradient| below which it need not, for tensors at noise level
STEP_ATOL = 1e-2       # per-element Adam step difference, in units of lr
ADAM_EPS = 1e-8        # train() uses Adam's default eps
SCORE_ATOL = 1e-5      # float32 eval score vs the float64 model, absolute
CHECK_AUGMENTED = 4    # augmented clips re-derived and compared per round


@dataclass
class Round:
    """One unit of timed work in one phase."""

    phase: str
    seconds: float
    clips: int
    attempted: int
    latencies_ms: list[float] = field(default_factory=list)


def _median_rate(rounds: list[Round], phase: str) -> float:
    return statistics.median(r.clips / r.seconds for r in rounds if r.phase == phase)


def _median_latency(rounds: list[Round], phase: str) -> tuple[float, int]:
    lat = [ms for r in rounds if r.phase == phase for ms in r.latencies_ms]
    return statistics.median(lat), len(lat)


def _float64_copy(m32: model.Model) -> model.Model:
    """Same weights and batch-norm statistics, held and computed in float64."""
    m64 = model.build(m32.config, dtype=np.float64)
    for name, p in m32.params.items():
        m64.params[name].values[...] = p.values
    for name, st in m32.bn_states.items():
        dst = m64.bn_states[name]
        dst.running_mean[...] = st.running_mean
        dst.running_var[...] = st.running_var
        dst.initialized = st.initialized
    return m64


def _digest(samples: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(samples)).digest()


def _clip_problems(samples: np.ndarray, what: str) -> list[str]:
    if samples.shape != (audio_io.CLIP_SAMPLES,):
        return [f"{what}: shape {samples.shape}, expected ({audio_io.CLIP_SAMPLES},)"]
    if not np.all(np.isfinite(samples)):
        return [f"{what}: non-finite samples"]
    if float(np.max(np.abs(samples))) > 1.0:
        return [f"{what}: peak {float(np.max(np.abs(samples)))} exceeds 1"]
    return []


def _prob_problems(probs, what: str) -> list[str]:
    probs = np.asarray(probs, dtype=np.float64)
    if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0) or np.any(probs >= 1.0):
        return [f"{what}: scores outside (0, 1): {probs.min()}..{probs.max()}"]
    return []


class Workload:
    name = ""
    phases: dict[str, float] = {}  # timed phase -> share of the window, in run order

    def prepare(self, work: Path, seed: int) -> None:
        """Generate inputs; not part of set-up time."""

    def setup(self) -> None:
        """One set-up as a user pays it; may run several times."""

    def run_round(self, phase: str) -> Round:
        raise NotImplementedError

    def after_round(self) -> None:
        """Per-round checks and clean-up, outside the timed and traced region."""

    def check(self) -> list[str]:
        """Problems found in the outputs kept from the rounds; empty when correct."""
        return []

    def config(self) -> dict:
        return {}

    def metrics(self, rounds: list[Round]) -> tuple[float, float, dict]:
        """(clips_per_s, latency_ms_p50, named end-to-end metrics as (value, unit))."""
        raise NotImplementedError


class TrainPaper(Workload):
    """train_eval.train at the paper config, focal loss, warm cache, fixed steps."""

    name = "train_paper"
    phases = {"train": 1.0}

    def prepare(self, work: Path, seed: int) -> None:
        self.cache = work / "cache"
        self.train_manifest, _ = corpus.make_corpus(work, seed, PAPER_BATCH * PAPER_STEPS, name="train")
        self.val_manifest, _ = corpus.make_corpus(work, seed, 2, name="val")
        self.model_cfg = model.RawNetLiteConfig(seed=seed)
        self.train_cfg = train_eval.TrainConfig(
            loss="focal", batch_size=PAPER_BATCH, max_epochs=1, max_steps=PAPER_STEPS,
            shuffle_seed=seed)
        for m in (self.train_manifest, self.val_manifest):
            for e in data_pipeline.parse_manifest(m):
                data_pipeline.load_clip(e.path, cache_dir=self.cache)
        self.results: list[tuple[dict[str, np.ndarray], train_eval.TrainHistory]] = []

    def setup(self) -> None:
        self.train_entries = data_pipeline.parse_manifest(self.train_manifest)
        self.val_entries = data_pipeline.parse_manifest(self.val_manifest)
        model.build(self.model_cfg)
        for e in self.train_entries + self.val_entries:
            data_pipeline.load_clip(e.path, cache_dir=self.cache)

    def run_round(self, phase: str) -> Round:
        t0 = time.perf_counter()
        trained, history = train_eval.train(self.model_cfg, self.train_cfg, self.train_entries,
                                            self.val_entries, augment=None, cache_dir=self.cache)
        dt = time.perf_counter() - t0
        # only the parameters are kept, so the held check data stays small
        self.results.append(({k: p.values for k, p in trained.params.items()}, history))
        n = PAPER_BATCH * PAPER_STEPS
        return Round(phase, dt, n, n, [dt * 1000.0 / PAPER_STEPS])

    def _clips(self, entries) -> tuple[np.ndarray, np.ndarray]:
        x = np.stack([data_pipeline.load_clip(e.path, cache_dir=self.cache).samples for e in entries])
        return x[:, None, :].astype(np.float64), np.array([float(e.label) for e in entries])

    def check(self) -> list[str]:
        """Replay train()'s one Adam step in float64 and compare what train() returned.

        The float64 replay's gradient is itself checked against a one-sided
        finite difference of the loss along the per-tensor unit gradient.
        """
        loss_fn = self.train_cfg.loss_fn()
        # train() builds from the same seed, so its one step saw these weights and this batch
        m32 = model.build(self.model_cfg)
        x, y, _ = next(iter(data_pipeline.make_batches(
            self.train_entries, batch_size=PAPER_BATCH, shuffle_seed=self.train_cfg.shuffle_seed,
            epoch=1, shuffle=True, cache_dir=self.cache)))
        x, y = x.astype(np.float64), y.astype(np.float64)
        m64 = _float64_copy(m32)
        probs, caches = m64.forward_train(x)
        loss64, dprobs = loss_fn(probs, y)
        m64.backward(dprobs, caches)
        del caches
        grads = {k: p.grad.copy() for k, p in m64.params.items()}
        norms = {k: float(np.linalg.norm(g)) for k, g in grads.items()}

        problems = []
        probe = _float64_copy(m32)
        for k, p in probe.params.items():
            if norms[k] > 0.0:
                p.values += FD_STEP * grads[k] / norms[k]
        fd = (loss_fn(probe.forward(x, mode="train"), y)[0] - loss64) / FD_STEP
        analytic = sum(norms.values())
        if not abs(fd - analytic) <= FD_RTOL * analytic:
            problems.append(f"float64 gradient: finite difference {fd!r} vs backward {analytic!r} "
                            f"exceeds rtol {FD_RTOL}")

        # Adam's first step, bias-corrected: lr * g / (|g| + eps)
        lr = self.train_cfg.lr
        for k, p in m64.params.items():
            p.values -= lr * grads[k] / (np.abs(grads[k]) + ADAM_EPS)
        vx, vy = self._clips(self.val_entries)
        val64 = loss_fn(m64.forward(vx, mode="eval"), vy)[0]
        for trained, h in self.results:
            r = h.records[0]
            if not (np.isfinite(r.train_loss) and np.isfinite(r.val_loss)):
                problems.append(f"non-finite losses: train {r.train_loss}, val {r.val_loss}")
            if not abs(r.train_loss - loss64) <= LOSS_RTOL * abs(loss64):
                problems.append(f"train loss {r.train_loss!r} vs float64 {loss64!r} exceeds rtol {LOSS_RTOL}")
            if not abs(r.val_loss - val64) <= LOSS_RTOL * abs(val64):
                problems.append(f"post-step val loss {r.val_loss!r} vs float64 {val64!r} exceeds rtol {LOSS_RTOL}")
            for k, p64 in m64.params.items():
                step32 = trained[k].astype(np.float64) - m32.params[k].values
                step64 = p64.values - m32.params[k].values
                # the step is about lr * sign(g): where |g| is within float32 error the
                # sign may flip, so only a resolved gradient gets the tight tolerance
                g = np.abs(grads[k])
                resolved = g >= max(GRAD_FLOOR, GRAD_RESOLVED * float(g.max()))
                tol = np.where(resolved, STEP_ATOL * lr, (2.0 + STEP_ATOL) * lr)
                if np.any(np.abs(step32 - step64) > tol):
                    problems.append(f"Adam step of {k} differs from the float64 step")
        return problems

    def config(self) -> dict:
        return {"model": asdict(self.model_cfg), "train": asdict(self.train_cfg)}

    def metrics(self, rounds):
        rate = _median_rate(rounds, "train")
        step_ms, _ = _median_latency(rounds, "train")
        return rate, step_ms, {"train_clips_per_s": (rate, "clips/s"),
                               "train_step_ms_p50": (step_ms, "ms")}


class ScorePaper(Workload):
    """evaluate() on a warm-cached manifest, then single files scored one at a time."""

    name = "score_paper"
    phases = {"eval": 0.75, "infer": 0.25}

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.cache = work / "cache"
        self.eval_manifest, _ = corpus.make_corpus(work, seed, EVAL_CLIPS, name="eval")
        _, infer_files = corpus.make_corpus(work, seed, INFER_FILES, name="infer")
        self.infer_paths = [Path(f.path) for f in infer_files]
        entries = data_pipeline.parse_manifest(self.eval_manifest)
        clips = [data_pipeline.load_clip(e.path, cache_dir=self.cache).samples for e in entries]
        # one train-mode forward fills the batch-norm statistics a checkpoint needs
        m = model.build(model.RawNetLiteConfig(seed=seed))
        m.forward(np.stack(clips[:2])[:, None, :], mode="train")
        self.checkpoint = work / "paper.ckpt"
        model.save(m, self.checkpoint)
        self.records: list[list[losses_metrics.ScoreRecord]] = []
        self.reports: list[losses_metrics.EvalReport] = []
        self.skipped: list[str] = []
        self.infer_probs: list[float] = []

    def setup(self) -> None:
        self.model = model.load(self.checkpoint)
        self.entries = data_pipeline.parse_manifest(self.eval_manifest)
        for e in self.entries:
            data_pipeline.load_clip(e.path, cache_dir=self.cache)

    def run_round(self, phase: str) -> Round:
        if phase == "eval":
            t0 = time.perf_counter()
            report, records, stats = train_eval.evaluate(
                self.model, self.entries, score_path=self.work / "scores.csv",
                batch_size=EVAL_BATCH, cache_dir=self.cache)
            dt = time.perf_counter() - t0
            self.records.append(records)
            self.reports.append(report)
            self.skipped.extend(stats.skipped)
            return Round(phase, dt, len(records), len(self.entries))
        # as `rawnetlite infer` does, one file at a time: bytes -> preprocess -> forward at batch 1
        latencies = []
        for path in self.infer_paths:
            t0 = time.perf_counter()
            clip = audio_io.preprocess(path.read_bytes())
            prob = self.model.forward(clip.samples[None, None, :], mode="eval")
            latencies.append((time.perf_counter() - t0) * 1000.0)
            self.infer_probs.append(float(prob[0]))
        n = len(latencies)
        return Round(phase, sum(latencies) / 1000.0, n, n, latencies)

    def check(self) -> list[str]:
        problems = [f"evaluate skipped {p}" for p in self.skipped]
        for records, report in zip(self.records, self.reports):
            if [r.path for r in records] != [e.path for e in self.entries]:
                problems.append("evaluate did not score every clip in manifest order")
            problems += _prob_problems([r.score for r in records], "eval")
            if report.eer is None or not 0.0 <= report.eer <= 1.0:
                problems.append(f"EER {report.eer} outside [0, 1]")
        problems += _prob_problems(self.infer_probs, "infer")
        written = losses_metrics.read_score_file(self.work / "scores.csv")
        if written != self.records[-1]:
            problems.append("score file does not round-trip the last evaluate() records")
        subset = self.entries[:2]
        x = np.stack([data_pipeline.load_clip(e.path, cache_dir=self.cache).samples for e in subset])
        probs64 = _float64_copy(self.model).forward(x[:, None, :].astype(np.float64), mode="eval")
        for records in self.records:
            got = np.array([r.score for r in records[: len(subset)]])
            err = float(np.max(np.abs(got - probs64)))
            if not err <= SCORE_ATOL:
                problems.append(f"eval scores differ from float64 by {err} > {SCORE_ATOL}")
        return problems

    def config(self) -> dict:
        return {"model": asdict(self.model.config), "eval_batch": EVAL_BATCH,
                "eval_clips": EVAL_CLIPS, "infer_files": INFER_FILES}

    def metrics(self, rounds):
        rate = _median_rate(rounds, "eval")
        p50, n = _median_latency(rounds, "infer")
        return rate, p50, {"score_clips_per_s": (rate, "clips/s"),
                           "infer_ms_p50": (p50, "ms"),
                           "infer_samples": (n, "count")}


_PROCESSED = re.compile(r"processed (\d+)/(\d+) files \((\d+) cache hits")


class Ingest(Workload):
    """`rawnetlite preprocess` into cold caches, then augmented passes over the warm one."""

    name = "ingest"
    phases = {"preprocess": 0.4, "augment": 0.6}

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.manifest, files = corpus.make_corpus(
            work, seed, INGEST_FILES, malformed_every=MALFORMED_EVERY, name="ingest")
        self.malformed = {f.path: f.malformed for f in files if f.malformed}
        self.injected_share = len(self.malformed) / len(files)
        # digests of the reference clips, so no check data stays resident during the rounds
        self.reference = {f.path: _digest(audio_io.preprocess(Path(f.path).read_bytes()).samples)
                          for f in files if not f.malformed}
        self.aug_cfg = augment.AugmentConfig()
        self.problems: list[str] = []
        self.cold_passes = 0
        self.warm: Path | None = None
        self.rejected = 0
        self.attempted = 0

    def setup(self) -> None:
        self.entries = data_pipeline.parse_manifest(self.manifest)
        for e in self.entries:
            Path(e.path).read_bytes()

    def run_round(self, phase: str) -> Round:
        if phase == "preprocess":
            cold = self.work / f"cold{self.cold_passes}"
            self.cold_passes += 1
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                rc = cli.main(["preprocess", str(self.manifest), str(cold)])
            dt = time.perf_counter() - t0
            self._pending = (self._check_cold, rc, out.getvalue(), cold)
            return Round(phase, dt, len(self.reference), len(self.entries))
        # only the waits for batches are timed; each clip is digested and checked in between
        stats = data_pipeline.BatchStats()
        batches = data_pipeline.make_batches(
            self.entries, batch_size=INGEST_BATCH, augment=self.aug_cfg, epoch=AUG_EPOCH,
            shuffle=False, cache_dir=self.warm, stats=stats)
        seen: list[tuple[str, bytes]] = []
        kept: list[tuple[np.ndarray, str]] = []  # the first augmented clips, for _check_warm
        dt = 0.0
        while True:
            t0 = time.perf_counter()
            item = next(batches, None)
            dt += time.perf_counter() - t0
            if item is None:
                break
            x, _, batch = item
            for i, e in enumerate(batch):
                self.problems.extend(_clip_problems(x[i, 0], e.path))
                if len(seen) >= len(self.reference) and len(kept) < CHECK_AUGMENTED:
                    kept.append((x[i, 0].copy(), e.path))
                seen.append((e.path, _digest(x[i, 0])))
        self._pending = (self._check_warm, seen, kept, stats)
        # each entry is attempted twice: clean and augmented
        return Round(phase, dt, len(seen), 2 * len(self.entries), [dt * 1000.0 / len(seen)])

    def after_round(self) -> None:
        check, *args = self._pending
        self._pending = None
        check(*args)

    def _check_cold(self, rc: int, text: str, cold: Path) -> None:
        p = self.problems
        m = _PROCESSED.search(text)
        if rc != 0 or m is None:
            p.append(f"preprocess exited {rc}: {text[-200:]!r}")
            return
        ok, total, hits = (int(g) for g in m.groups())
        self.rejected += total - ok
        self.attempted += total
        listed = {line.strip() for line in text.splitlines() if line.startswith("  ")}
        if total != len(self.entries) or hits != 0 or listed != set(self.malformed):
            p.append(f"cold pass: {ok}/{total} ok, {hits} hits, skipped set differs from the malformed set")
        cached = sorted(cold.glob("*.f32"))
        got = {_digest(audio_io.read_clip(f).samples) for f in cached}
        if len(cached) != len(self.reference) or got != set(self.reference.values()):
            p.append("cold-pass cache files differ from the reference clips")
        if self.warm is not None:
            shutil.rmtree(self.warm)
        self.warm = cold

    def _check_warm(self, seen, kept, stats) -> None:
        p = self.problems
        if set(stats.skipped) != set(self.malformed) or len(stats.skipped) != 2 * len(self.malformed):
            p.append(f"augmented pass skipped {len(stats.skipped)} items, expected each malformed file twice")
        n_clean = len(self.reference)
        if len(seen) != 2 * n_clean:
            p.append(f"augmented pass yielded {len(seen)} clips, expected {2 * n_clean}")
            return
        # shuffle=False: the clean pass over the entries comes first, then the augmented one
        for path, digest in seen[:n_clean]:
            if digest != self.reference[path]:
                p.append(f"warm-cache clip {path} differs from the cold-pass clip")
        index = {e.path: i for i, e in enumerate(self.entries)}
        for clip, path in kept:
            ref = audio_io.FixedClip(audio_io.preprocess(Path(path).read_bytes()).samples, peak=1.0)
            want = augment.augment_pipeline(ref, self.aug_cfg, (AUG_EPOCH, index[path]))
            if clip.tobytes() != want.samples.tobytes():
                p.append(f"augmented clip {path} differs from augment_pipeline on the reference")

    def check(self) -> list[str]:
        problems = list(self.problems)
        if self.rejected / self.attempted != self.injected_share:
            problems.append(f"error rate {self.rejected / self.attempted} != injected share {self.injected_share}")
        return problems

    def config(self) -> dict:
        malformed = {Path(path).name: kind for path, kind in sorted(self.malformed.items())}
        return {"files": INGEST_FILES, "malformed_every": MALFORMED_EVERY, "malformed": malformed,
                "malformed_share": self.injected_share, "batch": INGEST_BATCH,
                "augment": asdict(self.aug_cfg), "epoch": AUG_EPOCH}

    def metrics(self, rounds):
        pre = _median_rate(rounds, "preprocess")
        aug = _median_rate(rounds, "augment")
        clip_ms, _ = _median_latency(rounds, "augment")
        return pre, clip_ms, {"preprocess_clips_per_s": (pre, "clips/s"),
                              "augment_clips_per_s": (aug, "clips/s"),
                              "augment_clip_ms_p50": (clip_ms, "ms"),
                              "error_rate": (self.rejected / self.attempted, "ratio")}


WORKLOADS = {w.name: w for w in (TrainPaper, ScorePaper, Ingest)}
