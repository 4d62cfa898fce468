"""TahoeConfig rejects bad similarity parameters at construction."""

import pytest

from repro.core.config import TahoeConfig


class TestSimilarityParameters:
    def test_paper_defaults_accepted(self):
        config = TahoeConfig()
        assert (config.t_nodes, config.l_hash, config.m_chunks) == (4, 128, 64)

    def test_rejects_short_tokens(self):
        with pytest.raises(ValueError, match="t_nodes"):
            TahoeConfig(t_nodes=1)

    def test_rejects_nonpositive_hash_length(self):
        with pytest.raises(ValueError, match="l_hash"):
            TahoeConfig(l_hash=0, m_chunks=1)

    def test_rejects_nonpositive_chunk_count(self):
        with pytest.raises(ValueError, match="m_chunks"):
            TahoeConfig(m_chunks=0)

    def test_rejects_indivisible_chunks(self):
        with pytest.raises(ValueError, match="l_hash=128 is not divisible by m_chunks=48"):
            TahoeConfig(m_chunks=48)

    def test_rejects_unknown_similarity_method(self):
        with pytest.raises(ValueError, match="similarity_method"):
            TahoeConfig(similarity_method="minhash")

    def test_checked_even_when_similarity_is_off(self):
        """Without tree rearrangement conversion never reads the
        parameters, so construction is the only place to catch them."""
        with pytest.raises(ValueError, match="m_chunks"):
            TahoeConfig(tree_rearrangement=False, m_chunks=-4)

    def test_pairwise_accepted(self):
        assert TahoeConfig(similarity_method="pairwise").similarity_method == "pairwise"
