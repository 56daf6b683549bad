"""Experiment drivers: one module per paper table/figure.

Every module exposes ``run_*`` functions returning structured results,
a ``failures(result)`` listing the paper's claims the result does not
show, and a ``main()`` that prints the rows/series the paper reports and
exits non-zero on any failure.  All drivers accept scale knobs so tests
can run them quickly; the defaults reproduce the paper's parameters.

========================  ==========================================
Module                    Reproduces
========================  ==========================================
``fig2_ratelimits``       Figure 2 (rate limits of 45 open resolvers)
``fig4_attacks``          Figure 4 (attack validation, setups a-d)
``fig8_resilience``       Figure 8 (DCC vs vanilla, three scenarios)
``fig9_signaling``        Figure 9 (signaling on/off on a fwd chain)
``fig10_overhead``        Figure 10 (state scaling: CPU/memory proxy)
``fig11_delay``           Figure 11 (added processing delay CDF)
``table1_state``          Table 1 (DCC state vs resolver state)
========================  ==========================================
"""
