(** Multi-node scale-out: several {!Puma_sim.Node}s as one machine.

    A cluster splits a compiled program into contiguous per-node tile
    blocks (shards), one {!Puma_sim.Node} per chip, and runs them as one
    {!Puma_sim.Node.join}ed node over the global tile space: one clock,
    one run loop, one energy ledger, and one shared {!Puma_noc.Network}
    whose cross-node costs come from a {!Puma_noc.Fabric} — the same
    {!Puma_noc.Offchip} constants the analytical estimator uses.
    Cross-node messages are ordinary network arrivals, so a cluster runs
    in the node loop's fast mode; {!Puma_sim.Node.run_reference} on
    {!node} runs it in the reference mode, the oracle.

    To every caller above this module a cluster is that joined node
    ({!node}): run it, profile it, read its cycles, ledger and
    {!Puma_sim.Node.finish_energy} exactly as a single chip's.

    A cluster with a zero-cost fabric is bit-identical (outputs, cycles,
    energy event counts) to {!Puma_sim.Node.run} on the unsplit program
    — the contract [test/test_cluster.ml] pins for the whole model zoo,
    along with fast-vs-reference bit-identity under real link costs.

    See [docs/SCALEOUT.md]. *)

type t

val split_program : Puma_isa.Program.t -> nodes:int -> Puma_isa.Program.t array
(** Contiguous block split at stride [ceil(tiles / nodes)]: shard [k]
    keeps the global [tile_index]es of its tiles but rebases its I/O and
    constant bindings to local positions. Programs compiled with
    {!Puma_compiler.Compile.options.cluster} are padded so these blocks
    coincide with the partitioner's node assignment. *)

val create :
  ?nodes:int ->
  ?topology:Puma_noc.Fabric.topology ->
  ?zero_cost:bool ->
  ?noise_seed:int ->
  ?faults:Puma_xbar.Fault.plan option array ->
  Puma_isa.Program.t ->
  t
(** Split the program across [nodes] (default 2) chips connected by the
    given fabric topology (default [Mesh2d]). Each node programs its
    crossbars from its own noise stream ([noise_seed + k]) and its own
    slot of [faults] (length must equal [nodes]), modelling
    independent physical chips; all of them charge the cluster's one
    energy ledger. *)

val node : t -> Puma_sim.Node.t
(** The machine as one node: the {!Puma_sim.Node.join}ed runner over the
    global tile space. Its {!Puma_sim.Node.energy} is the cluster's one
    ledger (every chip's tiles plus the fabric), its
    {!Puma_sim.Node.cycles} the global clock; attach a probe or a
    profiler to it to observe every chip. *)

val run :
  t -> inputs:(string * float array) list -> (string * float array) list
(** One inference across the cluster: {!Puma_sim.Node.run} on {!node},
    so inputs land in the owning chips' tiles and outputs are read back
    from them. Raises {!Puma_sim.Node.Deadlock} (whose dump names each
    blocked tile's node) or [Failure] (cycle cap) like the single-node
    simulator. *)

val nodes : t -> int

val cycles : t -> int
(** Global cycles elapsed in completed {!run} calls. *)

val shard : t -> int -> Puma_sim.Node.t
(** Chip [k]'s node: its tiles (shared with {!node}) and
    {!Puma_sim.Node.retired_instructions}. Never {!Puma_sim.Node.run} it
    directly, and its {!Puma_sim.Node.cycles} stays 0: the clock is
    {!node}'s. *)

val energy_counts : t -> (Puma_hwmodel.Energy.category * int) list
(** Per-category event counts of the cluster's ledger — integers, so
    they compare exactly against a monolithic run. *)

val offchip_words : t -> int
(** Words that crossed chip-to-chip links (fabric hop-multiplied). *)

val dynamic_energy_pj : t -> float
(** Non-static energy derived from {!energy_counts}. *)

(** {2 Per-node static gates} *)

type shard_report = {
  node : int;
  cross_out : int;  (** Distinct cross-node channels leaving this shard. *)
  cross_in : int;  (** Distinct cross-node channels entering it. *)
  report : Puma_analysis.Analyze.report;
}

val analyze_shards : nodes:int -> Puma_isa.Program.t -> shard_report list
(** Run the static gates shard by shard. A channel-closed shard (no
    cross-node channels) goes through the full {!Puma_analysis.Analyze}
    pipeline — structure, dataflow, happens-before, ranges, resources —
    exactly like a single-node program. A shard with open cross-node
    channels cannot be analyzed in isolation (its sends target remote
    tiles, its receives pair with remote sends): it reports the
    documented [W-XNODE] warning, deferring those streams to the
    whole-program compile-time gates that already cover them. *)
