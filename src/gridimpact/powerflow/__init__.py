"""Radial power flow: backward/forward sweep snapshot solver and QSTS driver."""

from . import solver
from .kernels import active_backend
from .solver import *

__all__ = ["active_backend", *solver.__all__]
