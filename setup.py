"""Build the optional C insertion kernel from src/rsinf/_insertion.c.

A C compiler and the Python headers build it from that hand-written
source, with no code generator.  The extension is optional: with no
working compiler the build skips it, and the package runs on the
pure-Python kernel.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("rsinf._insertion", ["src/rsinf/_insertion.c"], optional=True)])
