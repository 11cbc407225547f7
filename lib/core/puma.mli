(** PUMA: programmable memristor-based accelerator — public façade.

    This module bundles the whole stack behind one entry point: build a
    model with {!Builder} (the Figure 7 interface) or pick one from
    {!Nn.Models}, compile it with {!compile}, and execute it on the
    functional simulator with {!Session}. The component libraries remain
    available for fine-grained use:

    - {!Puma_hwmodel}: configuration, Table 3 area/power, latency/energy
    - {!Puma_isa}: instruction set, encoding, programs
    - {!Puma_xbar}: memristor crossbar / MVMU models
    - {!Puma_arch} / {!Puma_tile} / {!Puma_noc} / {!Puma_sim}: PUMAsim
    - {!Puma_graph} / {!Puma_compiler}: graph IR and compiler
    - {!Puma_nn} / {!Puma_baselines}: workloads and evaluation models *)

module Config = Puma_hwmodel.Config
module Builder = Puma_graph.Builder
module Graph = Puma_graph.Graph

module Nn : sig
  module Layer = Puma_nn.Layer
  module Network = Puma_nn.Network
  module Models = Puma_nn.Models
end

val compile :
  ?config:Config.t ->
  ?options:Puma_compiler.Compile.options ->
  Graph.t ->
  Puma_compiler.Compile.result
(** Compile a graph for the given configuration (default:
    {!Config.sweetspot}). *)

val reference :
  Graph.t -> (string * float array) list -> (string * float array) list
(** Float reference execution (the numerical oracle). *)

module Accuracy = Puma_accuracy
(** The Figure 13 precision/noise accuracy experiment. *)

(** Stateful inference session: a compiled program loaded on a simulated
    node. *)
module Session : sig
  type t

  val create :
    ?config:Config.t ->
    ?options:Puma_compiler.Compile.options ->
    ?noise_seed:int ->
    Graph.t ->
    t

  val of_program : ?noise_seed:int -> Puma_isa.Program.t -> t

  val infer :
    t -> (string * float array) list -> (string * float array) list
  (** One inference: write inputs, run to completion, read outputs. *)

  val infer_batch :
    t ->
    (string * float array) list list ->
    (string * float array) list list
  (** Run a batch of inferences back to back (weights stay on the
      crossbars; only inputs move, Section 7.3). *)

  val metrics : t -> Puma_sim.Metrics.t
  (** Aggregate metrics over all inferences so far. *)

  val program : t -> Puma_isa.Program.t
  val compile_result : t -> Puma_compiler.Compile.result option
end
