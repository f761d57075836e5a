"""Build script: compiles the optional coloring kernel extension.

`kdiameter._colorcore` is a hand-written C extension built from
`src/kdiameter/_colorcore.c` with the system C compiler.  It is optional:
without a compiler the build still succeeds, and the package runs on the
pure-Python kernel `_colorcore_py`, selected at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("kdiameter._colorcore", ["src/kdiameter/_colorcore.c"],
                             optional=True)])
