"""The repo's performance benchmark (see ../README.md).

Everything here measures ``src/repro`` from outside, through its public
functions; nothing under ``src/`` knows this package exists.
"""
