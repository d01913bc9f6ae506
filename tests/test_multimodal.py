import pyarrow as pa
import pytest

import ray.data as rd
from ves_ray.stages.multimodal import (MediaDecoder, decode_media,
                                       make_fake_image)


def _media_table(n=20):
    return pa.table({
        "media_id": [f"img-{i:04d}" for i in range(n)],
        "media_type": ["image"] * n,
        "payload": [make_fake_image(i, 8 + i % 3, 6) for i in range(n)],
        "meta": ['{"codec":"fake"}'] * n,
    })


def test_fake_image_deterministic():
    assert make_fake_image(7, 8, 6) == make_fake_image(7, 8, 6)
    assert make_fake_image(7, 8, 6) != make_fake_image(8, 8, 6)


def test_decoder_direct():
    d = MediaDecoder()
    out = d(_media_table(5))
    assert "payload" not in out.column_names       # bytes shed
    assert out["width"].to_pylist() == [8, 9, 10, 8, 9]
    assert out["decode_ok"].to_pylist() == [True] * 5
    bad = d(pa.table({"media_id": ["x"], "media_type": ["image"],
                      "payload": [b"garbage"], "meta": ["{}"]}))
    assert bad["decode_ok"].to_pylist() == [False]


def test_real_codec_stubbed():
    with pytest.raises(NotImplementedError):
        MediaDecoder(codec="pil")


def test_decode_media_actor_pool():
    ds = rd.from_arrow(_media_table(20))
    out = decode_media(ds, concurrency=2, batch_size=4).to_pandas()
    assert len(out) == 20
    assert out["decode_ok"].all()
    assert set(out.columns) >= {"media_id", "width", "height", "pixel_mean"}
