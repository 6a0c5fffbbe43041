"""8x8 block DCT of image sets and its inverse.

Each image is zero-padded to whole 8x8 blocks and every block is mapped to
64 frequency coefficients with the orthonormal type-II cosine transform

    F(u, v) = 1/4 c(u) c(v) sum_a sum_b f(a, b)
              cos((2a+1) u pi / 16) cos((2b+1) v pi / 16),

with c(0) = 1/sqrt(2) and c(u) = 1 otherwise.  A transformed image is the
concatenation of its blocks in row-major block order, each block flattened
row-major, giving a d' = padded_height * padded_width feature vector.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import CenteredImageSet
from .errors import ConsistencyError

BLOCK = 8


def _dct_matrix():
    a = np.arange(BLOCK)
    basis = 0.5 * np.cos((2 * a[None, :] + 1) * a[:, None] * np.pi / 16)
    basis[0, :] *= 1.0 / np.sqrt(2.0)
    return basis


DCT_BASIS = _dct_matrix()  # (8, 8); forward per block is  C f C^T


@dataclass(frozen=True)
class BlockLayout:
    """Image dims; the padded block grid (each side up to a multiple of 8) follows."""

    height: int
    width: int

    @classmethod
    def for_image(cls, height: int, width: int) -> "BlockLayout":
        return cls(height, width)

    def __post_init__(self):
        if min(self.height, self.width) < 1:
            raise ConsistencyError(f"image size {self.height}x{self.width} is not positive")

    @property
    def padded_height(self) -> int:
        return (self.height + BLOCK - 1) // BLOCK * BLOCK

    @property
    def padded_width(self) -> int:
        return (self.width + BLOCK - 1) // BLOCK * BLOCK

    @property
    def blocks_per_image(self) -> int:
        return (self.padded_height // BLOCK) * (self.padded_width // BLOCK)

    @property
    def d_prime(self) -> int:
        return self.padded_height * self.padded_width


@dataclass
class SpectrumSet:
    """Block-DCT feature vectors (one per column) with class labels."""

    coeffs: np.ndarray  # (d', n) float64
    layout: BlockLayout
    labels: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.coeffs.shape[0] != self.layout.d_prime:
            raise ConsistencyError("coefficient rows must equal layout d'")
        if self.labels.shape != (self.coeffs.shape[1],):
            raise ConsistencyError("one label per column required")
        if not np.isfinite(self.coeffs).all():
            raise ConsistencyError("spectrum contains non-finite entries")

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]


def _to_blocks(images, layout):
    """(n, h, w) padded images -> (n, blocks, 8, 8) in row-major block order."""
    n = images.shape[0]
    br = layout.padded_height // BLOCK
    bc = layout.padded_width // BLOCK
    return (images.reshape(n, br, BLOCK, bc, BLOCK)
            .swapaxes(2, 3)
            .reshape(n, br * bc, BLOCK, BLOCK))


def _from_blocks(blocks, layout):
    n = blocks.shape[0]
    br = layout.padded_height // BLOCK
    bc = layout.padded_width // BLOCK
    return (blocks.reshape(n, br, bc, BLOCK, BLOCK)
            .swapaxes(2, 3)
            .reshape(n, layout.padded_height, layout.padded_width))


def forward_dct(images: CenteredImageSet) -> SpectrumSet:
    """Transform every image to its d'-dimensional block-DCT vector.

    Zero padding goes at the bottom/right; original content stays top-left.
    """
    layout = BlockLayout.for_image(images.height, images.width)
    n = images.pixels.shape[1]
    padded = np.zeros((n, layout.padded_height, layout.padded_width))
    padded[:, :images.height, :images.width] = \
        images.pixels.T.reshape(n, images.height, images.width)

    blocks = _to_blocks(padded, layout)
    spectra = np.einsum("ua,nbac,vc->nbuv", DCT_BASIS, blocks, DCT_BASIS,
                        optimize=True)
    return SpectrumSet(
        coeffs=spectra.reshape(n, layout.d_prime).T,
        layout=layout,
        labels=images.labels,
    )


def inverse_dct(spectra: SpectrumSet) -> CenteredImageSet:
    """Invert forward_dct and crop the padding back off.

    The mean image is not recoverable from a spectrum, so the result carries
    a zero mean; add the training mean back separately when reconstructing
    displayable pixels.
    """
    layout = spectra.layout
    n = spectra.n
    blocks = spectra.coeffs.T.reshape(n, layout.blocks_per_image, BLOCK, BLOCK)
    images = np.einsum("ua,nbuv,vc->nbac", DCT_BASIS, blocks, DCT_BASIS,
                       optimize=True)
    padded = _from_blocks(images, layout)
    cropped = padded[:, :layout.height, :layout.width]
    return CenteredImageSet(
        pixels=cropped.reshape(n, layout.height * layout.width).T,
        mean_image=np.zeros(layout.height * layout.width),
        height=layout.height,
        width=layout.width,
        labels=spectra.labels.copy(),
    )
