"""Word kernels and exact arithmetic: what every layer calls as ``K.<name>``.

The implementation lives in ``_pure``; this package only re-exports it, so
that ``_pure`` keeps its own bindings for the loops inside the kernel layer.
"""

from ._pure import (OSP_WORDS_CAP, beta_semigroup_identity, cleared,
                    compositions, divided, fubini, goldberg_oracle_table,
                    ideal_words, interval_type_words, interval_words,
                    iter_osp_words, kernel_word, leq_words, mu_tilde_type,
                    mu_tilde_words, mu_zeta_identity, order_type, osp_words,
                    quasi_meet, relative_word, rgs_word, segments,
                    series_compose, truncated_product, typed_ideal,
                    weisner_oracle_table, zeta_tilde_type, zeta_tilde_words)

BACKEND = "pure"
