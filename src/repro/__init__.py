"""Reproduction of "Enhancing Cross-ISA DBT Through Automatically
Learned Translation Rules" (Wang, McCamant, Zhai, Yew — ASPLOS 2018).

Top-level quick tour (see README.md for the full map):

* :mod:`repro.minic` — dual-target C-subset compiler (the LLVM/GCC
  stand-in),
* :mod:`repro.learning` — the paper's contribution: rule learning with
  symbolic verification,
* :mod:`repro.dbt` — the QEMU-like DBT that applies the learned rules,
* :mod:`repro.benchsuite` — the synthetic SPEC CINT2006 programs,
* :mod:`repro.experiments` — regeneration of every table and figure.

>>> from repro.minic import compile_pairs
>>> from repro.learning import learn_rules
>>> src = '''
... int main(void) {
...   int s = 0;
...   int i = 0;
...   while (i < 9) {
...     s = s + i - 1;
...     i += 1;
...   }
...   return s;
... }
... '''
>>> guest, host = compile_pairs(src)["llvm"]
>>> outcome = learn_rules(guest, host)
>>> outcome.report.rules > 0
True
"""

__version__ = "1.0.0"

__all__ = [
    "ir",
    "solver",
    "isa",
    "guest_arm",
    "host_x86",
    "symexec",
    "minic",
    "learning",
    "dbt",
    "benchsuite",
    "experiments",
]
