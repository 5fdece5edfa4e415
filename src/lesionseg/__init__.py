"""Desk-scale skin lesion segmentation toolkit.

A self-contained float32 autodiff engine drives an encoder with a dilated-
convolution bank, bi-directional feature refinement, and consistency-weighted
multi-scale decision fusion, trained with weighted cross entropy and a poly
learning-rate schedule on synthetic lesion data.
"""

__version__ = "0.1.0"
