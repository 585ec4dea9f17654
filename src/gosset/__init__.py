"""Verification suite for hyperbolic Gosset tessellations and W(E6).

Subpackages cover exact lattice arithmetic (lattice), isometry groups and
congruence quotients (isometry), wall systems and tile graphs (geometry),
Coxeter-diagram presentations with hexagon deflation (presentation), coset
enumeration (enumeration), the E6 root configuration (e6), Eisenstein
hexaflections (eisenstein), and the ``verify`` command line tool: its
check-report plumbing (report, cli) and its checks, one module per suite
(suites).
"""

__version__ = "0.1.0"
