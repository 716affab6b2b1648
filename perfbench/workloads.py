"""The benchmark's workloads: one fglap command each, on a fixed config.

Config texts are copies of the shipped configs with the mesh changed where
the workload says so. They are kept here rather than read from
``configs/`` so that an edit to a shipped config does not silently change
what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # fglap subcommand: "solve" or "convergence"
    config: str           # config file text handed to the CLI

    def cli_args(self, config_path, out_dir, seed: int) -> list[str]:
        args = [self.command, "--config", str(config_path),
                "--out", str(out_dir), "--seed", str(seed)]
        if self.command == "solve":
            args.append("--no-plot")
        return args


# configs/smoke_main1.cfg with mesh = 257. The cold-started comparison check
# (42 seeded auxiliary solves) dominates; G and Lambda are closed forms.
POWER_SOLVE = Workload(
    "power-solve", "solve", """\
family = power
p = 4
s = 0.3
mesh = 257
case = main1
f = const:1
q = const:0.5
n_schedule = 1,2,4,8,16
plot = true
""")

# configs/refinement.cfg with mesh = 129,257,513. The warm fixed-point/Newton
# scheme alone, no battery; the dense linear solves grow as m^3.
REFINE_SCHEME = Workload(
    "refine-scheme", "convergence", """\
family = power
p = 4
s = 0.3
mesh = 129,257,513
f = const:1
q = const:0.5
n_schedule = 1,2,4
""")

# configs/log_type.cfg as shipped. No closed-form G or Lambda, so the energy
# report and the battery run through the quadrature and inversion layers.
LOGTYPE_SOLVE = Workload(
    "logtype-solve", "solve", """\
family = log-type
a = 2
b = 2
c = 1
s = 0.3
mesh = 65
f = bump:2
q = abs-power:0.5,2
n_schedule = 1,2,4,8
""")

WORKLOADS = {w.name: w for w in (POWER_SOLVE, REFINE_SCHEME, LOGTYPE_SOLVE)}
