"""Seeded input generator for the benchmark workloads.

Everything is drawn from one numpy Generator seeded by the run's --seed,
so the same seed always gives the same files and arrays. Files are
written by this module, not by sasvkit's writers, in the single-space
layout those writers produce: `<id> <v1> ... <vD>` embeddings with the
shortest round-trip decimal of each float32, `<enroll> <test> <label>`
trials and `<enroll> <test> <score> <label>` score files. The cohort is
a SASVEMB1 binary file.

Population model: each speaker has a unit mean direction. A bona fide
utterance is mean + isotropic noise; a spoofed utterance aimed at a
speaker is that speaker's mean plus a shared attack direction plus
noise, so it scores high against the target (the ASV alone is fooled)
while the spoof detector, which scores each test utterance, separates
it. Trials mix target, nontarget and spoof labels.

Out of scope here (ROADMAP item 4): the whitespace-separator defect, so
every file uses single spaces, and cohort self-match, so the cohort
comes from speakers disjoint from the evaluation speakers.
"""

import struct
import zlib
from dataclasses import dataclass

import numpy as np

LABELS = ("target", "nontarget", "spoof")
# label shares of a trial list, in LABELS order
LABEL_MIX = (0.4, 0.4, 0.2)
UTT_NOISE = 1.2
SD_MEAN = 2.0  # detector score mean: +SD_MEAN bona fide, -SD_MEAN spoofed


@dataclass
class Population:
    ids: list  # utterance IDs, bona fide first then spoofed
    emb: np.ndarray  # float32, one row per ID
    speaker: np.ndarray  # speaker index of each row (target speaker for spoofs)
    spoof: np.ndarray  # bool per row
    sd: np.ndarray  # spoof-detector score of each row as a test utterance


@dataclass
class Trials:
    enroll: np.ndarray  # row indices into the population
    test: np.ndarray
    label: np.ndarray  # index into LABELS

    def __len__(self):
        return self.enroll.shape[0]


def _unit(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def population(rng, speakers, bona_per_spk, spoof_per_spk, dim, prefix="spk"):
    """Bona fide and spoofed utterance embeddings of `speakers` speakers."""
    means = _unit(rng, speakers, dim)
    attack = _unit(rng, 1, dim)[0]
    noise = UTT_NOISE / np.sqrt(dim)
    spk_b = np.repeat(np.arange(speakers), bona_per_spk)
    spk_s = np.repeat(np.arange(speakers), spoof_per_spk)
    bona = means[spk_b] + noise * rng.standard_normal((spk_b.size, dim))
    spoof = means[spk_s] + 0.5 * attack + noise * rng.standard_normal((spk_s.size, dim))
    ids = [f"{prefix}{s:03d}-utt{u:02d}" for s in range(speakers) for u in range(bona_per_spk)]
    ids += [f"{prefix}{s:03d}-spf{u:02d}" for s in range(speakers) for u in range(spoof_per_spk)]
    is_spoof = np.r_[np.zeros(spk_b.size, bool), np.ones(spk_s.size, bool)]
    sd = np.where(is_spoof, -SD_MEAN, SD_MEAN) + rng.standard_normal(len(ids))
    return Population(
        ids=ids,
        emb=np.vstack([bona, spoof]).astype(np.float32),
        speaker=np.r_[spk_b, spk_s],
        spoof=is_spoof,
        sd=sd,
    )


def trial_list(rng, pop, n):
    """`n` distinct labelled trials in a seeded order.

    Enroll sides are bona fide utterances. Target tests are another bona
    fide utterance of the same speaker, nontarget tests a bona fide
    utterance of another speaker, spoof tests a spoof aimed at the
    enrolled speaker.
    """
    bona = np.flatnonzero(~pop.spoof)
    by_spk = {
        kind: [np.flatnonzero((pop.speaker == s) & mask) for s in range(pop.speaker.max() + 1)]
        for kind, mask in (("bona", ~pop.spoof), ("spoof", pop.spoof))
    }
    counts = [int(round(share * n)) for share in LABEL_MIX]
    counts[0] += n - sum(counts)
    seen, rows = set(), []
    for label, count in enumerate(counts):
        made = 0
        while made < count:
            e = int(bona[rng.integers(bona.size)])
            s = int(pop.speaker[e])
            if label == 0:
                pool = by_spk["bona"][s]
            elif label == 1:
                other = int((s + 1 + rng.integers(len(by_spk["bona"]) - 1)) % len(by_spk["bona"]))
                pool = by_spk["bona"][other]
            else:
                pool = by_spk["spoof"][s]
            t = int(pool[rng.integers(pool.size)])
            if t == e or (e, t) in seen:
                continue
            seen.add((e, t))
            rows.append((e, t, label))
            made += 1
    arr = np.array(rows, dtype=np.int64)[rng.permutation(n)]
    return Trials(enroll=arr[:, 0], test=arr[:, 1], label=arr[:, 2])


def write_embeddings_text(path, ids, emb):
    with open(path, "w") as fh:
        for uid, row in zip(ids, emb.tolist()):
            fh.write(uid + " " + " ".join(map(repr, row)) + "\n")


def write_embeddings_binary(path, ids, emb):
    body = bytearray(struct.pack("<II", emb.shape[1], emb.shape[0]))
    for uid, row in zip(ids, emb.astype("<f4")):
        raw = uid.encode("utf-8")
        body += struct.pack("<H", len(raw)) + raw + row.tobytes()
    with open(path, "wb") as fh:
        fh.write(b"SASVEMB1" + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) + body)


def write_trials(path, ids, trials):
    with open(path, "w") as fh:
        for i in range(len(trials)):
            fh.write(f"{ids[trials.enroll[i]]} {ids[trials.test[i]]} {LABELS[trials.label[i]]}\n")


def write_scores(path, ids, trials, scores, order):
    """Score file of `scores` (aligned with `trials`), lines in `order`."""
    with open(path, "w") as fh:
        for i in order:
            fh.write(
                f"{ids[trials.enroll[i]]} {ids[trials.test[i]]} "
                f"{float(scores[i])!r} {LABELS[trials.label[i]]}\n"
            )
