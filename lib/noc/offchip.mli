(** Chip-to-chip interconnect model (HyperTransport-like, Table 3):
    6.4 GB/s per link, used by the analytical estimator when a model spans
    multiple nodes. *)

val link_bandwidth_bytes_per_sec : float

val transfer_cycles : Puma_hwmodel.Config.t -> words:int -> int
(** Cycles (at the core clock) to move [words] 16-bit words across one
    link. The energy of a word is the ledger's one charge,
    [Puma_hwmodel.Energy.per_event_pj _ Offchip]. *)
