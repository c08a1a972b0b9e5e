"""Build script: compiles the optional table-fill extension.

The kernel src/cayley/_fillcore.c is plain C against the CPython API,
compiled by setuptools with the system C compiler (gcc on Linux) into
cayley._fillcore_c. The package works without it (the pure-Python kernel
is selected at import time); the compiled kernel is only a speedup for the
enumeration search, so build failures are non-fatal.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("cayley._fillcore_c", ["src/cayley/_fillcore.c"], optional=True)])
