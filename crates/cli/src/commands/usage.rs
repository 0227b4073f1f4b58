//! The `gossip help` text.

/// Usage text shown by `gossip help`.
pub const USAGE: &str = "\
gossip — communication schedules for the multicast gossiping problem
          (Gonzalez, IPPS 2001: n + r rounds on any network of radius r)

commands:
  generate  --family F --n N [--seed S] [--out FILE] [--compact]
                                                       emit a graph as JSON
  plan      (--family F --n N | --graph FILE|NAME)
            [--algorithm concurrent-updown|simple|updown|telephone]
            [--planner fast|reference|both]
            [--stages all|tree]
            [--out FILE] [--trace-out FILE [--wall]]
            [--profile-out PROF.json]
            [--flight-out FILE.gfr]                    build + verify a schedule;
                                                       --planner fast runs the
                                                       CSR-direct pipeline, both
                                                       cross-checks it against the
                                                       reference; --stages tree stops
                                                       after the spanning tree (the
                                                       plan-at-scale mode: past
                                                       n = 65536 a full schedule
                                                       overflows u32 CSR offsets)
  profile   (GRAPH | --family F --n N | --graph FILE|NAME)
            [--algorithm A] [--planner fast|reference]
            [--out PROF.json]
            [--flame FILE]                             plan under the phase profiler:
                                                       per-phase time + work counters
                                                       (and heap attribution with the
                                                       prof-alloc build)
  trace     --family F --n N --vertex V                per-vertex table (paper style)
  bounds    --family F --n N                           lower bounds for a network
  exact     --family F --n N [--model telephone]       exact optimum (n <= 8)
  sweep     [--sizes 16,32,64] [--seed S]              n + r across all families
  analyze   (--family F --n N | --graph FILE) [--gantt] schedule profile
  compare   (--family F --n N | --graph FILE)           all algorithms side by side
  line      --n N (N <= 6)                              the n + r - 1 line schedule
  pipeline  --family F --n N [--batches K]              repeated-gossip overlap
  energy    --n N [--range R] [--seed S]                sensor-field energy model
  provenance (--family F --n N | --graph FILE|NAME)
            [--out FILE] [--message M]                 causal first-delivery DAG:
                                                       critical paths, slack vs n + r
  recover   (--family F --n N | --graph FILE|NAME)
            [--loss-rate P] [--crash V@T[,V@T..]]
            [--outage U-V@A..B[,..]] [--fault-seed S]
            [--max-epochs K] [--out FILE] [--metrics FILE]
            [--trace-out FILE] [--flight-out FILE.gfr] run under faults + self-heal;
            [--profile-out PROF.json]                  exit 1 if recovery falls short
  churn     (--family F --n N | --graph FILE|NAME)
            [--churn-rate P] [--churn-seed S]
            [--churn-plan FILE] [--churn-out FILE]
            [--max-epochs K] [--out FILE] [--metrics FILE]
            [--flight-out FILE.gfr]                    run while a seeded churn plan
            [--profile-out PROF.json]                  rewires the topology mid-run;
                                                       incremental schedule repair,
                                                       exit 1 if a reachable pair
                                                       is left undelivered
  bench-diff OLD.json NEW.json
            [--threshold PCT] [--wall-factor F]
            [--json]                                   compare BENCH_* artifacts;
                                                       exit 1 on regression; --json
                                                       prints per-field verdicts with
                                                       thresholds and deltas
  stats     METRICS.json|RECOVERY.json|CHURN.json|PROF.json|ALERTS.json|RUN.gfr|-
                                                       summarize a --metrics file, a
                                                       recovery report, a churn
                                                       report, a planner profile, an
                                                       --alerts-out artifact, or a
                                                       flight record (`-` = stdin)
  serve     (--family F --n N | --graph FILE|NAME)
            [--listen ADDR] [--addr-file FILE]
            [--round-delay-ms MS] [--linger-ms MS]
            [fault flags] [--max-epochs K]
            [--flight-out FILE.gfr]                    run the self-healing executor
                                                       under a live HTTP observability
                                                       server; exit 1 if recovery
                                                       falls short
  inspect   RUN.gfr|- [--round R]                      time-travel a flight record:
                                                       reconstructed hold-sets after
                                                       any round, the alert timeline,
                                                       and anomaly flags (`-` = stdin)
  diff      A.gfr B.gfr                                compare two flight records:
                                                       first divergent round, delivery
                                                       deltas; exit 1 unless identical
                                                       (one side may be `-` for stdin)
  dash      ARTIFACT.json|DIR [MORE...]
            [--out report.html] [--check]              aggregate metrics / BENCH_* /
                                                       recovery / profile / flight
                                                       artifacts into one
                                                       self-contained HTML dashboard;
                                                       --check exits 1 when cross-run
                                                       regression detection fires

options accepted by plan / analyze / pipeline / provenance / recover / churn:
  --metrics FILE    record span timings, counters, and per-round simulation
                    probes to FILE (inspect with `gossip stats FILE`);
                    `--metrics -` streams the artifact to stdout (human output
                    moves to stderr), enabling
                      gossip plan --family ring --n 16 --metrics - | gossip stats -

trace export (plan):
  --trace-out FILE  write a Chrome Trace Event Format / Perfetto JSON file:
                    one lane per processor, one slice per multicast (1 round
                    = 1 ms), tagged with the paper rule (U3/U4/D2/D3) that
                    produced it; add --wall to also run the threaded online
                    executor and append its wall-clock lanes

profiling (profile / plan, recover, churn --profile-out):
  the always-on phase profiler breaks schedule construction into a
  self-time/total-time phase tree (BFS sweeps, tree build, labeling,
  generation, CSR flattening, validation) with work counters. `gossip
  profile --out PROF.json` writes a schema-versioned PROF artifact
  (render with `gossip stats`, aggregate with `gossip dash`); --flame
  FILE writes collapsed stacks for flamegraph.pl / speedscope. Binaries
  built with `--features prof-alloc` additionally attribute allocation
  count / bytes / peak live bytes to each phase. `recover` and `churn`
  profile the base plan and the executor run (setup, kernel_replay,
  tree_maintenance, invalidation, projection, completion_planning,
  bound_guard) into the same artifact

live monitoring (serve):
  --listen ADDR        bind address (default 127.0.0.1:9464; port 0 picks a
                       free one)
  --addr-file FILE     write the bound host:port to FILE once listening, so
                       scripts can discover a `--listen 127.0.0.1:0` port
  --round-delay-ms MS  pause after each executed round (default 0) so
                       scrapers can watch `gossip_round_current` advance
  --linger-ms MS       keep serving for MS after the run completes so a
                       final `/metrics` scrape sees the finished state
  endpoints: /metrics (Prometheus text v0.0.4), /healthz (JSON liveness;
  degraded once a critical alert fires), /events (NDJSON stream of
  round/loss/epoch events), /alerts (JSON snapshot; /alerts/stream NDJSON)

alerting (plan / recover / churn / serve):
  --alerts [RULES.json]  evaluate streaming invariant monitors against the
                         run: round stall, knowledge-curve flatline,
                         projected breach of the n + r bound (fires before
                         the bound is crossed), loss-rate spike, recovery
                         epoch budget burn, churn invalidation storm. With
                         no file the built-in rule set runs; a JSON rule
                         file replaces it (severities info|warn|critical).
                         Fired alerts print after the run, land in the
                         flight record (`gossip inspect` timeline), count
                         into gossip_alerts_total{rule,severity}, and are
                         served on /alerts
  --alerts-fatal         exit 1 if any alert fired (implies --alerts)
  --alerts-out FILE      write fired alerts as a JSON artifact (implies
                         --alerts; render with `gossip stats FILE`)

flight recording (plan / recover / churn / serve):
  --flight-out FILE.gfr  capture the executed run as a compact binary flight
                         record: every attempted transmission, suppressed
                         delivery, round boundary, and repair epoch, plus a
                         run fingerprint (graph / schedule / fault digests).
                         `plan` records a clean bitset-kernel run or, with
                         fault flags, a lossy no-repair run; `recover` and
                         `serve` capture the self-healing execution, `churn`
                         the run it repaired. Inspect with `gossip inspect`,
                         compare runs with `gossip diff`

fault flags (plan / recover / serve):
  --loss-rate P     drop each delivery independently with probability P
  --crash V@T       crash-stop vertex V at the start of round T
                    (comma-separate for several: 3@5,7@9)
  --outage U-V@A..B link {U,V} down for rounds A..B (comma-separate)
  --fault-seed S    seed of the deterministic loss sampler (default 0)
  `plan` with fault flags additionally reports what a lossy run would lose
  (no repair); `recover` and `serve` run the self-healing executor

churn flags (churn):
  --churn-rate P    per-round probability of a topology event (default 0.05)
  --churn-seed S    seed of the deterministic churn generator (default 0)
  --churn-plan FILE replay a saved JSON churn plan instead of generating one
  --churn-out FILE  write the plan that ran (generated or loaded) as JSON,
                    so a generated run can be replayed exactly

--graph also accepts the paper's named instances: petersen (N2), n1 (the
Fig 1 ring, size --n), fig4, fig5 — and the generator specs
unit-disk:n,radius (seeded random geometric graph via --seed; the radius
grows by 1.25x until the field is connected) and gnp:n,p (seeded connected
G(n, p) via --seed; unlike the random-sparse family's fixed p = 0.1, the
density is explicit — at scale use p ~ 16/n to keep m ∝ n)

--algo is accepted as shorthand for --algorithm, and `concurrent` for
`concurrent-updown`

families: path ring star complete binary-tree caterpillar grid torus
          hypercube random-tree random-sparse";
