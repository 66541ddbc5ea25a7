"""Numerical scattering on the half line in units hbar = 2m = 1.

The package solves the radial equation

    u'' + (k^2 - l(l+1)/r^2 - U(r)) u = 0,    E = k^2,

for short-range potentials U = 2mV, builds Jost solutions and Jost
functions, locates bound states as zeros of F_l(i*alpha), and verifies
numerically that the scattering wave function, extrapolated to the
bound-state pole of the S matrix, reproduces the normalized bound-state
wave function with a universal prefactor.

Import from the modules themselves (polewave.potentials, .radial,
.spectrum, .poletheorem, .onedim, .separable, .analytic); importing the
package alone loads none of them.
"""

__version__ = "0.1.0"
