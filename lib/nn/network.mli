(** Networks: layer stacks with shape inference, workload statistics and
    graph construction.

    A network is both (a) an analytical workload descriptor — parameter
    counts, MACs, data-movement footprints used by the estimator and the
    CPU/GPU baselines — and (b), for simulation-scale models, a recipe for
    building the computational graph with synthesized weights.

    Recurrent networks process [seq_len] time-steps per inference;
    recurrent layers run at every step with weights shared across steps
    (weight reuse, Section 2.2.2), while feed-forward layers stacked after
    them (the output projection / softmax) run once per sequence on the
    final state. *)

type kind = Mlp | Deep_lstm | Wide_lstm | Cnn | Rnn_net | Boltzmann

type t = {
  name : string;
  kind : kind;
  input : Layer.shape;
  seq_len : int;
  layers : Layer.t list;
}

val make :
  name:string -> kind:kind -> input:Layer.shape -> ?seq_len:int ->
  Layer.t list -> t

val with_seq_len : t -> int -> t
(** Same network at a different sequence length. Full-size recurrent
    descriptors (NMT, BigLSTM) are workload-accurate at their paper
    sequence lengths but are simulated at short ones — the per-step
    compute is what the functional path validates. *)

val shapes : t -> Layer.shape list
(** Input shape followed by each layer's output shape. *)

val total_params : t -> int
val total_macs : t -> int
(** MACs per inference (all time-steps of recurrent layers; one pass of
    feed-forward layers). *)

val layer_steps : t -> Layer.t -> int
(** How many times a layer executes per inference. *)

val weight_bytes : t -> int
(** 16-bit weights. *)

val num_layers : t -> int

val kind_name : kind -> string

val pp_summary : Format.formatter -> t -> unit

(** {1 Graph construction (simulation-scale models only)} *)

val build_graph : ?seed:int -> t -> Puma_graph.Graph.t
(** Build the computational graph with seeded random weights. Input is a
    single vector named ["x"] of length [seq_len * len input]; the output
    (last time-step) is named ["y"]. *)
