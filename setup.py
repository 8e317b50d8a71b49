"""Legacy setup shim.

The execution environment has no network access and no ``wheel``
package, so PEP 517 editable installs (which build a wheel) fail.
This shim lets ``pip install -e .`` fall back to the classic
``setup.py develop`` path.  All metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
