"""CSV source with schema normalization (sources.structured)."""

import pyarrow as pa

from ves_ray.sources.structured import read_csv

SCHEMA = pa.schema([("doc_id", pa.int64()), ("source", pa.string()),
                    ("n_tok", pa.int64()), ("score", pa.float64())])


def test_csv_schema_drift_normalized(tmp_path):
    # shard 1: full schema; shard 2: missing n_tok, extra column
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("doc_id,source,n_tok,score\n1,s1,10,0.5\n2,s2,20,1.5\n")
    b.write_text("doc_id,source,score,junk\n3,s3,2.5,x\n")
    out = (read_csv([str(a), str(b)], SCHEMA).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert list(out.columns) == [f.name for f in SCHEMA]
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["n_tok"].tolist()[:2] == [10, 20]
    assert out["n_tok"].isna().iloc[2]
    assert "junk" not in out.columns


def test_csv_types_cast_to_schema(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("doc_id,source,n_tok,score\n"
                 "7,alpha,3,0.25\n8,beta,4,0.75\n")
    ds = read_csv(str(f), SCHEMA)
    t = pa.table(ds.to_pandas())
    assert t["doc_id"].type == pa.int64()
    assert t.num_rows == 2
    out = ds.to_pandas()
    assert out["source"].tolist() == ["alpha", "beta"]
    assert out["score"].tolist() == [0.25, 0.75]
