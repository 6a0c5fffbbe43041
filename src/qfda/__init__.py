"""Discriminant subspace learning for uniformly quantized block-DCT images."""

__version__ = "0.1.0"
