"""Multimodal columns: image/audio/video as opaque ``binary`` columns with
typed metadata.

The Ray-side plumbing (schema, task stages, small batch sizes for large
payloads, output layout) is real and tested — and so is decoding for the
formats the standard library can honestly handle (``functions/codecs.py``:
PPM, 8-bit PNG, PCM WAV — numpy + zlib + wave, no external libraries).
Exotic codecs (JPEG, MP3, video containers) still raise a clear
``NotImplementedError`` unless ``deterministic_fake=True`` (seeded fake so
the distributed path can always be exercised); videos use a simple
length-prefixed concatenated-image container documented below.

Stage shape: module-level batch functions for ``map_batches(fn,
fn_kwargs=..., batch_size=MEDIA_BATCH_SIZE)`` — they hold no codec state,
so they run as plain tasks.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

from ..functions import codecs

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),       # image | audio | video
    ("payload", pa.binary()),
    ("width", pa.int32()),             # -1 when unknown / not applicable
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])

# Large binary payloads: keep batches small so the batches in flight fit the
# worker heap (ray_guide 'Memory-aware').
MEDIA_BATCH_SIZE = 32


# --- the trivial video container: b"VID0" + per frame (u32 length + PNG/PPM)

def pack_video(frames: list[bytes]) -> bytes:
    out = [b"VID0"]
    for f in frames:
        out.append(struct.pack("<I", len(f)))
        out.append(f)
    return b"".join(out)


def unpack_video(data: bytes) -> list[bytes]:
    if not data.startswith(b"VID0"):
        raise ValueError("not a VID0 container")
    pos, frames = 4, []
    while pos + 4 <= len(data):
        (n,) = struct.unpack("<I", data[pos:pos + 4])
        frames.append(data[pos + 4:pos + 4 + n])
        pos += 4 + n
    return frames


def make_fake_media(n: int, media_type: str = "image", seed: int = 42) -> pa.Table:
    """Deterministic media rows with REAL payloads: PNG images, PCM WAV
    audio, VID0 videos of PPM frames (all decodable by functions/codecs)."""
    rng = np.random.default_rng(seed)
    payloads, widths, heights, durs = [], [], [], []
    for i in range(n):
        if media_type == "image":
            w, h = int(rng.integers(8, 33)), int(rng.integers(8, 33))
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            payloads.append(codecs.encode_png(img) if i % 2 == 0
                            else codecs.encode_ppm(img))
            widths.append(w)
            heights.append(h)
            durs.append(-1)
        elif media_type == "audio":
            rate = 8000
            nsamp = int(rng.integers(400, 1600))
            t = np.arange(nsamp) / rate
            x = 0.5 * np.sin(2 * np.pi * float(rng.uniform(100, 800)) * t)
            payloads.append(codecs.encode_wav(x.astype(np.float32), rate))
            widths.append(-1)
            heights.append(-1)
            durs.append(int(nsamp * 1000 / rate))
        else:  # video
            k = int(rng.integers(2, 6))
            w, h = 16, 12
            frames = [codecs.encode_ppm(
                rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
                for _ in range(k)]
            payloads.append(pack_video(frames))
            widths.append(w)
            heights.append(h)
            durs.append(k * 40)
    return pa.table({
        "media_id": pa.array(range(n), pa.int64()),
        "media_type": pa.array([media_type] * n),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array(widths, pa.int32()),
        "height": pa.array(heights, pa.int32()),
        "duration_ms": pa.array(durs, pa.int32()),
    })


def _image_features(payload: bytes, fake: bool, dim: int) -> np.ndarray:
    if fake:
        h = hashlib.blake2b(payload, digest_size=dim * 4).digest()
        return np.frombuffer(h, dtype=np.uint32).astype(np.float32) / 2**32
    img = codecs.decode_image(payload).astype(np.float32) / 255.0
    lum = img.mean(axis=2)
    grid = codecs.resize_nearest((lum * 255).astype(np.uint8), 2, 2) \
        .astype(np.float32).reshape(-1) / 255.0
    feats = np.concatenate([
        img.mean(axis=(0, 1)), img.std(axis=(0, 1)), grid,
        [img.shape[0] / 1024.0, img.shape[1] / 1024.0]])
    out = np.zeros(dim, dtype=np.float32)
    out[:min(dim, feats.size)] = feats[:dim]
    return out


def image_features_batch(batch: pa.Table, deterministic_fake: bool = False,
                         feature_dim: int = 16) -> pa.Table:
    """payload → fixed-dim feature vector.

    Real path: decode PNG/PPM (stdlib codecs), features = per-channel
    mean/std + a 2×2 downsampled luminance grid scaled into ``feature_dim``
    slots (deterministic, library-free).  Unsupported formats raise;
    ``deterministic_fake`` hashes the payload instead (always available)."""
    feats = [_image_features(p, deterministic_fake, feature_dim)
             for p in batch.column("payload").to_pylist()]
    return pa.table({
        "media_id": batch.column("media_id"),
        "features": pa.array([f.tolist() for f in feats],
                             pa.list_(pa.float32())),
    })


def _resize(p: bytes, w: int, h: int, fake: bool) -> bytes:
    if fake:
        return (p[:w * h]).ljust(w * h, b"\0")
    small = codecs.resize_nearest(codecs.decode_image(p), w, h)
    return codecs.encode_ppm(small) if codecs.sniff_media(p) == "ppm" \
        else codecs.encode_png(small)


def resize_batch(batch: pa.Table, target_w: int = 32, target_h: int = 24,
                 deterministic_fake: bool = False) -> pa.Table:
    """payload → resized payload.  Real path: decode PNG/PPM, nearest-
    neighbor numpy resize, re-encode in the same container; fake mode
    truncates/pads bytes (plumbing only)."""
    out = {n: batch.column(n) for n in batch.column_names}
    out["payload"] = pa.array(
        [_resize(p, target_w, target_h, deterministic_fake)
         for p in batch.column("payload").to_pylist()], pa.binary())
    out["width"] = pa.array([target_w] * batch.num_rows, pa.int32())
    out["height"] = pa.array([target_h] * batch.num_rows, pa.int32())
    return pa.table(out)


def audio_features_batch(batch: pa.Table, n_bands: int = 4) -> pa.Table:
    """WAV payload → (duration_ms, rms, zero_crossings, ``n_bands``
    spectral-band energies) — stdlib wave + numpy rfft, no audio library."""
    rows = {"media_id": [], "duration_ms": [], "rms": [],
            "zero_crossings": [], "band_energy": []}
    for mid, p in zip(batch.column("media_id").to_pylist(),
                      batch.column("payload").to_pylist()):
        x, rate = codecs.decode_wav(p)
        # float64 downmix/accumulation: float32 means drift ~1e-7 across
        # summation orders, which is visible at the oracle's 6-decimal
        # rounding; float64 keeps the SQL-recomputed rms bit-stable
        mono = x.mean(axis=1, dtype=np.float64)
        spec = np.abs(np.fft.rfft(mono)) ** 2
        rows["media_id"].append(mid)
        rows["duration_ms"].append(int(len(mono) * 1000 / rate))
        rows["rms"].append(float(np.sqrt(np.mean(mono ** 2))))
        rows["zero_crossings"].append(
            int(np.sum(np.signbit(mono[1:]) != np.signbit(mono[:-1]))))
        rows["band_energy"].append(
            [float(b.sum()) for b in np.array_split(spec, n_bands)])
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "duration_ms": pa.array(rows["duration_ms"], pa.int32()),
        "rms": pa.array(rows["rms"], pa.float64()),
        "zero_crossings": pa.array(rows["zero_crossings"], pa.int64()),
        "band_energy": pa.array(rows["band_energy"], pa.list_(pa.float64())),
    })


def channel_stats_batch(batch: pa.Table) -> pa.Table:
    """payload → EXACT integer per-channel pixel stats (count/sum/min/max).

    Integer outputs make the decode→aggregate path hash-comparable against a
    SQL oracle over persisted exploded pixels (the float feature vectors of
    ``image_features_batch`` are summation-order sensitive; these are not)."""
    out = {"media_id": [], "channel": [], "n_pixels": [],
           "pixel_sum": [], "pixel_min": [], "pixel_max": []}
    for mid, p in zip(batch.column("media_id").to_pylist(),
                      batch.column("payload").to_pylist()):
        img = codecs.decode_image(p)
        if img.ndim == 2:
            img = img[:, :, None]
        flat = img.reshape(-1, img.shape[2]).astype(np.int64)
        for ci in range(flat.shape[1]):
            ch = flat[:, ci]
            out["media_id"].append(mid)
            out["channel"].append(ci)
            out["n_pixels"].append(int(ch.size))
            out["pixel_sum"].append(int(ch.sum()))
            out["pixel_min"].append(int(ch.min()))
            out["pixel_max"].append(int(ch.max()))
    return pa.table({n: pa.array(v, pa.int64()) for n, v in out.items()})


def frames_batch(batch: pa.Table, num_frames: int = 4,
                 deterministic_fake: bool = False) -> pa.Table:
    """video payload → ``num_frames`` evenly spaced frames.  Real path: VID0
    container of PNG/PPM frames; fake mode slices bytes (plumbing only)."""
    ids, frames, indices = [], [], []
    for mid, p in zip(batch.column("media_id").to_pylist(),
                      batch.column("payload").to_pylist()):
        if deterministic_fake:
            step = max(1, len(p) // num_frames)
            sampled = [p[fi * step:(fi + 1) * step]
                       for fi in range(num_frames)]
        else:
            all_frames = unpack_video(p)
            idx = np.linspace(0, len(all_frames) - 1,
                              min(num_frames, len(all_frames))).astype(int)
            sampled = [all_frames[i] for i in idx]
        for fi, fr in enumerate(sampled):
            ids.append(mid)
            indices.append(fi)
            frames.append(fr)
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "frame_idx": pa.array(indices, pa.int32()),
        "frame": pa.array(frames, pa.binary()),
    })


def _media_map(media_ds, fn, **fn_kwargs):
    return media_ds.map_batches(fn, fn_kwargs=fn_kwargs, batch_format="pyarrow",
                                batch_size=MEDIA_BATCH_SIZE)


def image_channel_stats(media_ds):
    return _media_map(media_ds, channel_stats_batch)


def decode_features(media_ds, deterministic_fake: bool = False):
    return _media_map(media_ds, image_features_batch,
                      deterministic_fake=deterministic_fake)


def audio_features(media_ds):
    return _media_map(media_ds, audio_features_batch)


def sample_frames(media_ds, num_frames: int = 4,
                  deterministic_fake: bool = False):
    return _media_map(media_ds, frames_batch, num_frames=num_frames,
                      deterministic_fake=deterministic_fake)
