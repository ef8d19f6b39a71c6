"""cdlab: a numerical laboratory for Christoffel-Darboux kernels, canonical
systems, and their regularly varying scaling limits.

Import each public name from its module (`from cdlab import oprl`), whose
`__all__` lists it."""

__version__ = "0.1.0"
