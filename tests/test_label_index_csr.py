"""The flat CSR ``LabelIndex`` against a test-local port of the
dict-of-arrays index it replaced: same candidates, same scores (to 1e-12)
and the same fuzzy expansions, over the full index and per shard with the
global vocabulary."""

from __future__ import annotations

import os
import random
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mannheimsearchjoinsengine_ray.functions.normalize import tokenize_string
from mannheimsearchjoinsengine_ray.functions.similarity import (
    jaccard,
    levenshtein,
)
from mannheimsearchjoinsengine_ray.sources import pages as P
from mannheimsearchjoinsengine_ray.state import index as IX


class DictIndex:
    """Reference: token → sorted entry-id array dicts, per-token idf dict
    and (first char, length) bucket lists, scored one mention at a time."""

    def __init__(self, index_dir, shards=None, vocab=None):
        files = sorted(os.path.join(index_dir, f) for f in os.listdir(index_dir)
                       if f.startswith("shard_") and f.endswith(".parquet"))
        if shards is not None:
            keep = {f"shard_{s:04d}.parquet" for s in shards}
            files = [f for f in files if os.path.basename(f) in keep]
        t = pa.concat_tables([pq.read_table(f) for f in files])
        df = pd.DataFrame({"token": t.column("token").to_pandas(),
                           "uri": t.column("entity_uri").to_pandas(),
                           "norm": t.column("name_norm").to_pandas(),
                           "ntok": t.column("n_tokens").to_pandas()})
        df["eid"], _ = pd.factorize(df["uri"] + "\x00" + df["norm"])
        firsts = df.drop_duplicates("eid").sort_values("eid")
        self.uri = firsts["uri"].tolist()
        self.norm = firsts["norm"].tolist()
        self.ntok = firsts["ntok"].to_numpy()
        self.postings = {tok: np.unique(g.to_numpy())
                         for tok, g in df.groupby("token", sort=False)["eid"]}
        self.vocab = vocab
        if vocab is not None:
            self.idf = {tok: float(np.log1p(vocab.n_entries
                                            / max(1, vocab.df_of(tok))))
                        for tok in self.postings}
        else:
            n = max(1, len(self.uri))
            self.idf = {tok: float(np.log1p(n / len(ids)))
                        for tok, ids in self.postings.items()}
        self.buckets = defaultdict(list)
        for tok in self.postings:
            self.buckets[(tok[0], len(tok))].append(tok)

    def fuzzy_expand(self, token, max_edit=1):
        return [c for dl in (-1, 0, 1)
                for c in self.buckets.get((token[0], len(token) + dl), ())
                if c != token and levenshtein(token, c, max_edit) <= max_edit]

    def search_scored(self, mention, fuzzy=True, max_edit=1):
        toks = tokenize_string(mention, remove_brackets=True)
        if not toks:
            return []
        norm, tokset = " ".join(toks), set(toks)
        acc = defaultdict(float)
        for tok in tokset:
            ids = self.postings.get(tok)
            if ids is None and self.vocab is not None \
                    and self.vocab.contains(tok):
                continue
            if ids is None and fuzzy:
                for ft in self.fuzzy_expand(tok, max_edit):
                    for eid in self.postings[ft]:
                        acc[eid] += self.idf[ft] * 0.5
                continue
            if ids is None:
                continue
            for eid in ids:
                acc[eid] += self.idf[tok]
        out = []
        for eid, s in acc.items():
            name = self.norm[eid]
            denom = max(len(tokset), int(self.ntok[eid]))
            score = 0.5 * (s / max(1e-9, denom)) \
                + 0.5 * jaccard(tokset, set(name.split()))
            if name == norm:
                score += 10.0
            out.append((eid, score))
        return out


def _edits(word: str) -> list[str]:
    """Edit-distance-1 variants that keep the first character: one
    substitution, one insertion, one deletion."""
    sub = word[0] + ("z" if word[1] != "z" else "y") + word[2:]
    ins = word[:2] + "q" + word[2:]
    dele = word[0] + word[2:] if len(word) > 2 else word
    return [sub, ins, dele]


def _mentions(labels: list[str], remote_only: list[str]) -> list[str]:
    out = []
    for label in labels:
        words = label.split()
        out += [label, label.upper()]
        for e in _edits(words[0]):
            out.append(" ".join([e] + words[1:]))
        out.append(" ".join(["x" + words[0][1:]] + words[1:]))  # first char
    out += ["Zürich 北京 café", "", "—", "null", "nocandidate zz"]
    out += remote_only + [t + " " + labels[0] for t in remote_only]
    return out


def _scale_gazetteer(n: int) -> pa.Table:
    cols = P.make_scale_gazetteer_batch({"id": np.arange(n)})
    return pa.table({
        "entity_uri": pa.array(cols["entity_uri"], pa.string()),
        "label": pa.array(cols["label"], pa.string()),
        "aliases": pa.array(cols["aliases"], pa.list_(pa.string())),
        "entity_type": pa.array(cols["entity_type"], pa.string()),
        "attrs": pa.array(cols["attrs"], pa.list_(pa.string())),
    })


@pytest.fixture(scope="module", params=["gazetteer60", "scale2k"])
def kb(request, ray_session, tmp_path_factory):
    import ray.data as rd

    if request.param == "gazetteer60":
        gaz = pa.table(P.make_gazetteer(60))
        labels = [P.entity_label(i) for i in range(0, 60, 3)]
    else:
        gaz = _scale_gazetteer(2000)
        labels = [P.scale_gazetteer_label(i) for i in range(0, 2000, 97)]
    d = str(tmp_path_factory.mktemp(request.param))
    IX.build_index(rd.from_arrow(gaz), d, num_shards=4)
    return d, labels


def _by_entry(idx_uri, idx_norm, scored):
    return {(idx_uri[e], idx_norm[e]): s for e, s in scored}


def _assert_same(new: IX.LabelIndex, ref: DictIndex, mentions: list[str]):
    new_uri = new.entries_uri.to_pylist()
    new_norm = new.entries_norm.to_pylist()
    offs, eids, scores = new.score_many(mentions)
    for i, m in enumerate(mentions):
        want = _by_entry(ref.uri, ref.norm, ref.search_scored(m))
        got = _by_entry(new_uri, new_norm, new.search_scored(m))
        assert got.keys() == want.keys(), m
        for k, s in want.items():
            assert abs(got[k] - s) <= 1e-12, (m, k)
        # the batch scan equals the one-mention scan
        a, b = offs[i], offs[i + 1]
        assert _by_entry(new_uri, new_norm,
                         zip(eids[a:b].tolist(), scores[a:b].tolist())) == got
        for tok in set(tokenize_string(m, remove_brackets=True)):
            assert set(new.fuzzy_expand(tok)) == set(ref.fuzzy_expand(tok)), tok


def test_full_index_matches_dict_reference(kb):
    d, labels = kb
    new, ref = IX.LabelIndex(d), DictIndex(d)
    assert new.tokens.to_pylist() and \
        set(new.tokens.to_pylist()) == set(ref.postings)
    idf = dict(zip(new.tokens.to_pylist(), new.idf.tolist()))
    for tok, ids in ref.postings.items():
        assert new.postings_of(tok).tolist() == ids.tolist(), tok
        assert abs(idf[tok] - ref.idf[tok]) <= 1e-12, tok
    mentions = _mentions(labels, [])
    _assert_same(new, ref, mentions)
    # a first-character edit never fuzzy-matches the original token
    word = labels[0].split()[0]
    assert word not in new.fuzzy_expand("x" + word[1:])
    assert new.search_scored("") == [] and new.fuzzy_expand("") == []


def test_shard_indexes_match_dict_reference(kb):
    d, labels = kb
    vocab = IX.VocabStats(d)
    full = set(IX.LabelIndex(d).tokens.to_pylist())
    for s in IX.index_meta(d)["shards"]:
        new, ref = IX.LabelIndex(d, shards=[s], vocab=vocab), \
            DictIndex(d, shards=[s], vocab=vocab)
        local = set(new.tokens.to_pylist())
        assert local == set(ref.postings)
        idf = dict(zip(new.tokens.to_pylist(), new.idf.tolist()))
        for tok in ref.postings:
            assert abs(idf[tok] - ref.idf[tok]) <= 1e-12, tok
        remote_only = sorted(t for t in full - local
                             if tokenize_string(t) == [t])[:5]
        assert remote_only
        _assert_same(new, ref, _mentions(labels, remote_only))
        for tok in remote_only:
            assert new.search_scored(tok) == []


def test_vocab_batched_lookup_matches_scalar(kb):
    d, _ = kb
    vocab = IX.VocabStats(d)
    toks = IX.LabelIndex(d).tokens.to_pylist()[:50] + ["nosuchtoken", ""]
    assert vocab.df_many(toks).tolist() == [vocab.df_of(t) for t in toks]
    assert vocab.contains_many(toks).tolist() == \
        [vocab.contains(t) for t in toks]
    assert all(vocab.contains_many(toks[:50]))


def _cands(n_uris: int, seed: int) -> list[tuple]:
    """Candidates with score ties inside one uri (an entity's labels) and
    across uris."""
    rng = random.Random(seed)
    out = []
    for u in range(n_uris):
        for k in range(3):
            score = rng.choice([1.0, 0.5, 0.5 + 1e-12, 0.25])
            out.append((f"http://e/{u}", score, f"name {k} {u}", "T",
                        (frozenset({"red"}),) if k == 1 else ()))
    return out


def test_finalize_candidates_order_is_total():
    """Arrival order (which follows set iteration, so PYTHONHASHSEED) must
    not change the top-k or the matched name on score ties."""
    cands = _cands(6, 1)
    want = IX.finalize_candidates(cands, 4)
    rng = random.Random(7)
    for _ in range(20):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        assert IX.finalize_candidates(shuffled, 4) == want
        assert IX.finalize_candidates(shuffled, 4, context=["red"],
                                      refine_factor=0.3) == \
            IX.finalize_candidates(cands, 4, context=["red"],
                                   refine_factor=0.3)


def test_top_hits_matches_finalize_candidates():
    """The vectorized top-k over flat candidates equals the pure finalize
    per mention."""
    groups = [_cands(n, seed) for n, seed in ((5, 1), (1, 2), (0, 3), (9, 4))]
    mid = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    flat = [c for g in groups for c in g]
    uri = pa.array([c[0] for c in flat], pa.string())
    norm = pa.array([c[2] for c in flat], pa.string())
    scores = np.array([c[1] for c in flat], dtype=np.float64)
    rank, urank = IX.rank_keys(uri, norm)
    hit, counts = IX.top_hits(mid, len(groups), scores, rank, urank, 3)
    pos = 0
    for g, k in zip(groups, counts.tolist()):
        got = [(flat[i][0], flat[i][1], flat[i][2], flat[i][3])
               for i in hit[pos:pos + k]]
        assert got == IX.finalize_candidates(g, 3)
        pos += k
    gaps = IX.score_gaps(mid, len(groups), scores)
    for g, gap in zip(groups, gaps.tolist()):
        top2 = sorted(c[1] for c in g)[-2:]
        assert gap == (top2[1] - top2[0] if len(g) > 1 else float("inf"))
