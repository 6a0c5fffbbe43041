import numpy as np
import pytest

from qfda.blockdct import (
    BLOCK,
    DCT_BASIS,
    BlockLayout,
    SpectrumSet,
    forward_dct,
    inverse_dct,
)
from qfda.dataset import CenteredImageSet
from qfda.errors import ConsistencyError


def centered(pixels, h, w, labels=None):
    pixels = np.asarray(pixels, dtype=np.float64)
    if labels is None:
        labels = np.zeros(pixels.shape[1], dtype=np.int64)
    return CenteredImageSet(pixels=pixels, mean_image=np.zeros(h * w),
                            height=h, width=w, labels=np.asarray(labels))


def dct_block_literal(block):
    """Direct four-loop evaluation of the 8x8 transform definition."""
    out = np.empty((8, 8))
    for u in range(8):
        for v in range(8):
            cu = 1 / np.sqrt(2) if u == 0 else 1.0
            cv = 1 / np.sqrt(2) if v == 0 else 1.0
            acc = 0.0
            for a in range(8):
                for b in range(8):
                    acc += (block[a, b]
                            * np.cos((2 * a + 1) * u * np.pi / 16)
                            * np.cos((2 * b + 1) * v * np.pi / 16))
            out[u, v] = 0.25 * cu * cv * acc
    return out


class TestLayout:
    def test_padding_to_next_multiple(self):
        layout = BlockLayout.for_image(28, 28)
        assert (layout.padded_height, layout.padded_width) == (32, 32)
        assert layout.d_prime == 1024 and layout.blocks_per_image == 16

    def test_exact_multiple_unchanged(self):
        layout = BlockLayout.for_image(16, 8)
        assert (layout.padded_height, layout.padded_width) == (16, 8)

    def test_non_positive_size_rejected(self):
        # -17 pads to -16, so a -17x-17 model.json would pass the d' = 256 check
        for height, width in ((-17, -17), (0, 8)):
            with pytest.raises(ConsistencyError, match="not positive"):
                BlockLayout.for_image(height, width)


class TestBasis:
    def test_orthonormal(self):
        np.testing.assert_allclose(DCT_BASIS @ DCT_BASIS.T, np.eye(8),
                                   atol=1e-12)

    def test_constant_block_maps_to_dc(self):
        img = centered(np.full((64, 1), 3.0), 8, 8)
        coeffs = forward_dct(img).coeffs[:, 0].reshape(8, 8)
        assert coeffs[0, 0] == pytest.approx(8 * 3.0, abs=1e-12)
        assert np.abs(coeffs.ravel()[1:]).max() <= 1e-12


class TestForward:
    def test_matches_literal_definition(self):
        rng = np.random.default_rng(11)
        pixels = rng.uniform(-128, 128, size=(16 * 16, 3))
        spectra = forward_dct(centered(pixels, 16, 16))
        for i in range(3):
            img = pixels[:, i].reshape(16, 16)
            got = spectra.coeffs[:, i].reshape(4, 8, 8)
            blocks = [img[r:r + 8, c:c + 8]
                      for r in (0, 8) for c in (0, 8)]
            for b, block in enumerate(blocks):
                np.testing.assert_allclose(got[b], dct_block_literal(block),
                                           atol=1e-10)

    def test_zero_padding_bottom_right(self):
        # a 12x12 constant image pads to 16x16; blocks 1..3 are partial
        pixels = np.full((144, 1), 2.0)
        spectra = forward_dct(centered(pixels, 12, 12))
        layout = spectra.layout
        assert (layout.padded_height, layout.padded_width) == (16, 16)
        back = inverse_dct(spectra)
        np.testing.assert_allclose(back.pixels, pixels, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        pixels = rng.uniform(-200, 200, size=(28 * 28, 5))
        spectra = forward_dct(centered(pixels, 28, 28))
        back = inverse_dct(spectra)
        assert np.abs(back.pixels - pixels).max() <= 1e-9

    def test_labels_carried(self):
        pixels = np.zeros((64, 3))
        spectra = forward_dct(centered(pixels, 8, 8, labels=[2, 0, 1]))
        np.testing.assert_array_equal(spectra.labels, [2, 0, 1])


class TestSpectrumSet:
    def test_row_count_must_match_layout(self):
        layout = BlockLayout.for_image(8, 8)
        with pytest.raises(ConsistencyError):
            SpectrumSet(coeffs=np.zeros((63, 2)), layout=layout,
                        labels=np.zeros(2, dtype=np.int64))

    def test_nonfinite_rejected(self):
        layout = BlockLayout.for_image(8, 8)
        bad = np.zeros((64, 1))
        bad[3] = np.nan
        with pytest.raises(ConsistencyError):
            SpectrumSet(coeffs=bad, layout=layout,
                        labels=np.zeros(1, dtype=np.int64))
