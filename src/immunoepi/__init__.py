"""Linked within-host / between-host cholera dynamics toolkit.

Subpackages:

* ``errors`` -- the package's exceptions (ConfigError, the NumericsError family), numpy-free
* ``numerics`` -- shared integration / quadrature / root-finding kernel
* ``within_host`` -- slow-fast immune-pathogen ODE model and infection runs
* ``bifurcation`` -- equilibrium branch sweeps, fold/Hopf detection, cycle sampling
* ``coefficients`` -- named coefficient-function families for the structured model
* ``between_host`` -- immune-status-structured epidemic model (PDE, R0, spectra, renewal)
* ``cli`` -- scenario-driven command line front end
"""

__version__ = "0.1.0"
