#!/usr/bin/env python3
"""Run the sanity pipeline in a temp dir and print SHA-256 digests of its outputs.

The pipeline is: generate the sanity corpus (the `make_sanity_data.py`
defaults), `rawnetlite train configs/sanity.yaml`, then `rawnetlite eval` of
the checkpoint on the same manifest. The script prints the digests of
`checkpoint.ckpt`, of `scores.csv`, and of `history.csv` without its
wall-clock `seconds` column. The sanity config trains without augmentation, so
a fourth digest covers that path: every clip and label of one augmented
`make_batches` pass over the corpus (the default `AugmentConfig`, epoch
AUG_EPOCH, shuffle seed AUG_SHUFFLE_SEED). The sanity model has 8 channels and
one residual block, so a fifth digest covers the paper config
(`RawNetLiteConfig()`, 64 channels, three blocks): one batch-2 training step
from seeded input, hashing the probabilities, every gradient in registry
order, every running mean and variance after the step, and the eval-mode
probabilities of the same batch. A sixth digest covers `rawnetlite protocol
in_domain` on the same corpus and config at scale PROTOCOL_SCALE: its
`checkpoint.ckpt`, `scores_for.csv`, `report_for.json` and `history.csv`
without seconds, hashed together. A change that must not alter results prints
the same six lines before and after; run the script in a checkout of each.

    python scripts/sanity_digests.py

It imports `rawnetlite` from the `src/` next to it, ignores
RAWNETLITE_CACHE_DIR, and takes about half a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rawnetlite import cli, data_pipeline, model  # noqa: E402
from rawnetlite.augment import AugmentConfig  # noqa: E402
from rawnetlite.losses_metrics import focal_loss  # noqa: E402
from rawnetlite.sanity import generate_corpus  # noqa: E402

AUG_EPOCH = 3
AUG_SHUFFLE_SEED = 5
PAPER_STEP_SEED = 26
PROTOCOL_SCALE = "0.002"


def history_without_seconds(path: Path) -> bytes:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    drop = rows[0].index("seconds")
    return "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows).encode()


def augmented_pass(manifest: Path) -> bytes:
    """The clips and labels of one augmented `make_batches` pass, batch after batch."""
    batches = data_pipeline.make_batches(data_pipeline.parse_manifest(manifest), augment=AugmentConfig(),
                                         epoch=AUG_EPOCH, shuffle_seed=AUG_SHUFFLE_SEED)
    return b"".join(clips.tobytes() + labels.tobytes() for clips, labels, _ in batches)


def paper_step() -> bytes:
    """The arrays of one paper-config training step at batch 2, then an eval forward of the same batch."""
    m = model.build(model.RawNetLiteConfig())
    x = np.random.default_rng(PAPER_STEP_SEED).uniform(-1, 1, (2, 1, m.config.input_len)).astype(np.float32)
    probs, caches = m.forward_train(x)
    m.backward(focal_loss(probs, np.array([0.0, 1.0]))[1], caches)
    arrays = [probs, *(p.grad for p in m.params.values()),
              *(a for st in m.bn_states.values() for a in (st.running_mean, st.running_var)),
              m.forward(x, "eval")]
    return b"".join(a.tobytes() for a in arrays)


def main() -> None:
    os.environ.pop(cli.CACHE_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # relative, as configs/sanity.yaml expects: scores.csv then names no temp dir
        os.chdir(tmp)
        manifest = generate_corpus(Path("data/sanity"), n_per_class=64, seed=42)
        run, evaluated, protocol = tmp / "run", tmp / "eval", tmp / "protocol"
        config = str(ROOT / "configs" / "sanity.yaml")
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["train", config, "--output-dir", str(run)],
                         ["eval", str(run / "checkpoint.ckpt"), str(manifest), str(evaluated)],
                         ["protocol", "in_domain", config, "--scale", PROTOCOL_SCALE, "--output-dir", str(protocol),
                          "--set", f"manifests={{for: {manifest}}}"]):
                if cli.main(argv) != cli.EXIT_OK:
                    sys.exit(f"rawnetlite {argv[0]} failed")
        protocol /= "in_domain"
        for name, data in (("checkpoint.ckpt", (run / "checkpoint.ckpt").read_bytes()),
                           ("scores.csv", (evaluated / "scores.csv").read_bytes()),
                           ("history.csv without seconds",
                            history_without_seconds(run / "history.csv")),
                           ("augmented make_batches pass", augmented_pass(manifest)),
                           ("paper-config training step", paper_step()),
                           ("protocol in_domain run", b"".join(
                               [*((protocol / n).read_bytes() for n in ("checkpoint.ckpt", "scores_for.csv",
                                                                        "report_for.json")),
                                history_without_seconds(protocol / "history.csv")]))):
            print(f"{hashlib.sha256(data).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
