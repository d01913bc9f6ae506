"""Multimodal (image/audio/video) column stages.

Media is carried as opaque ``binary`` columns with typed metadata
(``media_type``, ``width``/``height``/``sample_rate`` …). The Ray-side
plumbing — schema, actor-pool stage shape, batch sizing for large
binary payloads — is real and tested; the codec itself is pluggable:
real decoders (PIL/ffmpeg) are NOT available in this environment, so
the default codec is a deterministic fake that parses the fixture
header format, and requesting a real codec raises NotImplementedError
with guidance.

Scale notes: binary payloads dominate block size — callers should use
small ``batch_size`` (256–1024) and rely on
``DataContext.target_max_block_size`` so a batch × pool concurrency
fits worker heaps; outputs drop the payload column as early as
possible (feature-extract emits only features).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("media_type", pa.string()),      # "image" | "audio" | "video"
    ("payload", pa.binary()),
    ("meta", pa.string()),            # JSON metadata string
])

_FAKE_MAGIC = b"FAKEIMG1"


def make_fake_image(media_id_num: int, width: int, height: int) -> bytes:
    """Deterministic fake image payload: magic + dims + splitmix pixel
    bytes. Stands in for a real encoded image in tests/fixtures."""
    from ..hashing import U64, hash2, splitmix64
    n = width * height
    i = np.arange(n, dtype=np.uint64)
    px = (hash2(splitmix64(U64(media_id_num)), i) & U64(0xFF)).astype(np.uint8)
    head = _FAKE_MAGIC + np.array([width, height], dtype="<u4").tobytes()
    return head + px.tobytes()


class MediaDecoder:
    """Actor-pool decode stage:
    ``map_batches(MediaDecoder, fn_constructor_kwargs=dict(codec="fake"),
    concurrency=N, batch_size=256, batch_format="pyarrow")``.

    ``__init__`` loads the codec once per actor (the stand-in for
    loading libjpeg/ffmpeg/model weights); ``__call__`` decodes a batch
    and appends width/height/pixel-stats columns."""

    def __init__(self, codec: str = "fake"):
        if codec != "fake":
            raise NotImplementedError(
                f"codec {codec!r}: real media codecs (PIL/ffmpeg) are not "
                "available in this environment; plug one in here and keep "
                "the batch contract identical")
        self.codec = codec

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized over the batch's raw binary buffers: header
        gather + cumsum pixel sums, no per-row Python. A real codec
        would necessarily loop rows (libjpeg decodes one image at a
        time) — but the surrounding plumbing stays identical."""
        payloads = batch["payload"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        n = len(payloads)
        boff = np.frombuffer(payloads.buffers()[1], dtype=np.int32)[
            payloads.offset:payloads.offset + n + 1].astype(np.int64)
        data = np.frombuffer(payloads.buffers()[2], dtype=np.uint8)
        if n == 0:
            out = batch.drop_columns(["payload"])
            out = out.append_column("width", pa.array([], type=pa.int32()))
            out = out.append_column("height", pa.array([], type=pa.int32()))
            out = out.append_column("pixel_mean",
                                    pa.array([], type=pa.float64()))
            return out.append_column("decode_ok",
                                     pa.array([], type=pa.bool_()))
        lens = np.diff(boff)
        start = boff[:-1]
        headed = lens >= 16
        magic = np.frombuffer(_FAKE_MAGIC, dtype=np.uint8)
        safe = np.where(headed, start, 0)
        idx = np.minimum(safe[:, None] + np.arange(16),
                         max(len(data) - 1, 0))
        head = data[idx]                                  # (n, 16) gather
        ok = headed & (head[:, :8] == magic).all(axis=1)
        wh = np.ascontiguousarray(head[:, 8:16]).view("<u4").reshape(n, 2)
        w = np.where(ok, wh[:, 0].astype(np.int64), -1)
        h = np.where(ok, wh[:, 1].astype(np.int64), -1)
        # sanity-bound dims before w*h so a corrupt header can't
        # overflow the pixel count
        ok &= (w >= 0) & (h >= 0) & (w < 1 << 20) & (h < 1 << 20)
        npx = np.where(ok, np.where(ok, w, 0) * np.where(ok, h, 0), 0)
        ok &= lens >= 16 + npx
        npx = np.where(ok, npx, 0)
        cs = np.concatenate(([0], np.cumsum(data, dtype=np.int64)))
        # clip for not-ok rows (their sums are masked out below)
        px_sum = (cs[np.minimum(safe + 16 + npx, len(data))]
                  - cs[np.minimum(safe + 16, len(data))])
        mean = np.divide(px_sum, npx,
                         out=np.full(n, np.nan), where=npx > 0)
        w = np.where(ok, w, -1)
        h = np.where(ok, h, -1)
        out = batch.drop_columns(["payload"])      # shed bytes ASAP
        out = out.append_column("width", pa.array(w.astype(np.int32)))
        out = out.append_column("height", pa.array(h.astype(np.int32)))
        out = out.append_column("pixel_mean", pa.array(mean, type=pa.float64()))
        return out.append_column("decode_ok", pa.array(ok, type=pa.bool_()))


def decode_media(ds, *, codec: str = "fake", concurrency=2,
                 batch_size: int = 256, num_cpus: float = 0.5):
    """Attach the media-decode actor pool. Small batch_size on purpose:
    payload bytes × batch_size × concurrency must fit worker heaps."""
    return ds.map_batches(MediaDecoder,
                          fn_constructor_kwargs=dict(codec=codec),
                          batch_format="pyarrow",
                          batch_size=batch_size,
                          concurrency=concurrency, num_cpus=num_cpus)
