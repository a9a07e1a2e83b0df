"""Exact diagrammatics for the F4 category and its 26-dimensional module.

Layers, bottom to top:

* ``exactla``    -- the one exact elimination (rank/nullspace/inverse on
                   sparse rational rows), the one contractor of sparse
                   integer tensor networks
* ``ratfield``   -- the coefficient field Q(a, d) of rational functions
* ``octonion``   -- the 8-dimensional composition algebra over Q
* ``albert``     -- the 27-dim exceptional Jordan algebra, trace form, bases,
                   the Jordan node contracted from the octonion table
* ``diagram``    -- string-diagram terms, combos, parser, rot/switch/mirror
* ``functor``    -- evaluation of diagrams as exact multilinear maps on V^(n)
* ``relations``  -- the relation catalog and the exact verifier
* ``derivations``-- der(A), the concrete 52-dimensional Lie algebra
* ``cli``        -- command-line front end (``f4cat``)
"""

__version__ = "0.1.0"
