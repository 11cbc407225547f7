module Instr = Puma_isa.Instr
module Program = Puma_isa.Program
module Order = Puma_analysis.Order

(* Channel repair (credit-based channel sequencing).

   The happens-before pass ([Puma_analysis.Order]) flags single-sender
   channels whose in-flight pressure can exceed the receive-FIFO depth:
   there packets beyond the depth wait in the network, which models no
   bound on that buffering. This pass restores a static depth bound
   with a credit loop per flagged channel
   (dst, fifo) with transfers t_0 .. t_{n-1} and FIFO depth d:

   - after receive r_k (k <= n-d-1) the destination sends a one-word
     credit token back to the sender on a dedicated ack fifo;
   - before send s_k (k >= d) the sender receives one credit.

   Send s_k then cannot issue until r_{k-d} has retired, so at most d
   packets are ever in flight and no delivery finds the FIFO full. The
   ack channel itself carries the
   same bound (credit i is consumed before s_{i+d}, which precedes
   r_{i+d} and therefore the (i+d)-th credit), so the repair introduces
   no new hazard; [Compile.compile] re-runs the analysis on the repaired
   program to confirm.

   Tokens are one-word messages: the destination reads a persistent
   host-written word (a constant binding added per destination tile) and
   the sender lands each credit in its own fresh persistent word, so the
   repair adds no shared-memory diagnostics.

   When the sender has no free receive fifo for the ack channel (e.g. an
   aggregator tile already receiving on every fifo), the pass falls back
   to fifo splitting: the channel's n transfers move round-robin onto
   ceil(n / depth) fifos free at the destination, so each subchannel
   keeps at most depth packets in flight. Splitting rewrites fifo ids in
   matched send/receive pairs and adds no instructions, but needs free
   destination fifos, which wide fan-in channels (rbm's 18-transfer
   aggregation) do not have — hence credits first.

   A program with no flagged channel is returned physically unchanged. *)

type stats = {
  channels_repaired : int;
  credits_inserted : int;  (** Ack send/receive pairs added. *)
  channels_split : int;
      (** Channels repaired by the fifo-splitting fallback (counted in
          [channels_repaired] too). *)
  channels_skipped : int;
      (** Flagged channels left unrepaired (no free ack fifo at the
          sender and not enough free fifos at the destination, or a tile
          memory is full). *)
}

let no_repair =
  {
    channels_repaired = 0;
    credits_inserted = 0;
    channels_split = 0;
    channels_skipped = 0;
  }

(* Smallest fifo id the tile never receives on, if any. *)
let free_fifo ~num_fifos used =
  let f = ref 0 in
  while !f < num_fifos && used.(!f) do
    incr f
  done;
  if !f < num_fifos then Some !f else None

let smem_high_water (p : Program.t) =
  let hw = Array.make (Array.length p.tiles) 0 in
  let bump tile a = if tile >= 0 && tile < Array.length hw then hw.(tile) <- max hw.(tile) a in
  Array.iteri
    (fun t (tp : Program.tile_program) ->
      let instr i =
        match i with
        | Instr.Load { addr = Instr.Imm_addr a; vec_width; _ }
        | Instr.Store { addr = Instr.Imm_addr a; vec_width; _ } ->
            bump t (a + vec_width)
        | Instr.Send { mem_addr; vec_width; _ }
        | Instr.Receive { mem_addr; vec_width; _ } ->
            bump t (mem_addr + vec_width)
        | _ -> ()
      in
      Array.iter (Array.iter instr) tp.core_code;
      Array.iter instr tp.tile_code)
    p.tiles;
  let binding (b : Program.io_binding) = bump b.tile (b.mem_addr + b.length) in
  List.iter binding p.inputs;
  List.iter binding p.outputs;
  List.iter (fun (b, _) -> binding b) p.constants;
  hw

type insertion = { at_pc : int; before : bool; ins : Instr.t }

let apply_insertions (code : Instr.t array) (prov : int array) inserts =
  let out_code = ref [] and out_prov = ref [] in
  let rest = ref inserts in
  let emit i src =
    out_code := i :: !out_code;
    out_prov := src :: !out_prov
  in
  Array.iteri
    (fun pc i ->
      let take f =
        let ins, keep = List.partition f !rest in
        rest := keep;
        List.iter (fun x -> emit x.ins (-1)) ins
      in
      take (fun x -> x.at_pc = pc && x.before);
      emit i (if pc < Array.length prov then prov.(pc) else -1);
      take (fun x -> x.at_pc = pc && not x.before))
    code;
  List.iter (fun x -> emit x.ins (-1)) !rest;
  ( Array.of_list (List.rev !out_code),
    Array.of_list (List.rev !out_prov) )

let repair (p : Program.t) ~(provenance : Codegen.provenance) =
  let hazards = Order.hazards p in
  if hazards = [] then (p, provenance, no_repair)
  else begin
    let config = p.config in
    let num_fifos = config.Puma_hwmodel.Config.num_fifos in
    let depth = config.Puma_hwmodel.Config.fifo_depth in
    let smem_words = config.Puma_hwmodel.Config.smem_bytes / 2 in
    let ntiles = Array.length p.tiles in
    let tile_slot = Hashtbl.create 8 in
    Array.iteri (fun i (tp : Program.tile_program) -> Hashtbl.replace tile_slot tp.tile_index i) p.tiles;
    (* Receive fifos already in use, per tile (by tile index). *)
    let used = Array.make_matrix ntiles num_fifos false in
    Array.iteri
      (fun slot (tp : Program.tile_program) ->
        Array.iter
          (function
            | Instr.Receive { fifo_id; _ }
              when fifo_id >= 0 && fifo_id < num_fifos ->
                used.(slot).(fifo_id) <- true
            | _ -> ())
          tp.tile_code)
      p.tiles;
    let hw = smem_high_water p in
    let inserts : insertion list ref array = Array.init ntiles (fun _ -> ref []) in
    (* In-place fifo retargets from the splitting fallback, keyed by
       original pc; applied before any insertions shift pcs. *)
    let rewrites : (int * Instr.t) list ref array =
      Array.init ntiles (fun _ -> ref [])
    in
    let new_constants = ref [] in
    (* One persistent token word per destination tile, shared by all its
       ack sends (single host writer, so no analysis noise). *)
    let token_addr = Hashtbl.create 4 in
    let repaired = ref 0 and credits = ref 0 and skipped = ref 0 in
    let split = ref 0 in
    let retarget slot pc fifo =
      let tp = p.Program.tiles.(slot) in
      let instr =
        match tp.Program.tile_code.(pc) with
        | Instr.Send s -> Instr.Send { s with fifo_id = fifo }
        | Instr.Receive r -> Instr.Receive { r with fifo_id = fifo }
        | i -> i
      in
      rewrites.(slot) := (pc, instr) :: !(rewrites.(slot))
    in
    (* Fallback when no ack fifo is free at the sender: spread the
       channel's transfers round-robin over ceil(n/depth) fifos free at
       the destination. Per-fifo subsequences keep the k-th-send /
       k-th-receive pairing (both sides move together, in order) and
       carry at most [depth] packets in flight each. *)
    let try_split (hz : Order.hazard) ~src_slot ~dst_slot n =
      let k_needed = (n + depth - 1) / depth in
      let free_d =
        List.filter
          (fun f -> not used.(dst_slot).(f))
          (List.init num_fifos Fun.id)
      in
      let avail = Array.of_list (hz.Order.hz_fifo :: free_d) in
      if Array.length avail < k_needed then false
      else begin
        Array.iteri
          (fun i (xf : Order.transfer) ->
            let f = avail.(i mod k_needed) in
            retarget src_slot xf.Order.xf_send_pc f;
            retarget dst_slot xf.Order.xf_recv_pc f)
          hz.hz_transfers;
        for i = 1 to k_needed - 1 do
          used.(dst_slot).(avail.(i)) <- true
        done;
        incr repaired;
        incr split;
        true
      end
    in
    let hazards =
      List.sort
        (fun (a : Order.hazard) (b : Order.hazard) ->
          Stdlib.compare (a.hz_dst, a.hz_fifo) (b.hz_dst, b.hz_fifo))
        hazards
    in
    List.iter
      (fun (hz : Order.hazard) ->
        let n = Array.length hz.hz_transfers in
        match
          ( Hashtbl.find_opt tile_slot hz.hz_src,
            Hashtbl.find_opt tile_slot hz.hz_dst )
        with
        | Some src_slot, Some dst_slot when n > depth -> (
            match free_fifo ~num_fifos used.(src_slot) with
            | None -> if not (try_split hz ~src_slot ~dst_slot n) then incr skipped
            | Some ack_fifo ->
                let n_credits = n - depth in
                (* Space: one credit landing word per ack at the sender,
                   plus (possibly) one token word at the destination. *)
                let need_token = not (Hashtbl.mem token_addr dst_slot) in
                if
                  hw.(src_slot) + n_credits > smem_words
                  || (need_token && hw.(dst_slot) + 1 > smem_words)
                then (if not (try_split hz ~src_slot ~dst_slot n) then incr skipped)
                else begin
                  used.(src_slot).(ack_fifo) <- true;
                  let token =
                    match Hashtbl.find_opt token_addr dst_slot with
                    | Some a -> a
                    | None ->
                        let a = hw.(dst_slot) in
                        hw.(dst_slot) <- a + 1;
                        Hashtbl.replace token_addr dst_slot a;
                        new_constants :=
                          ( {
                              Program.name =
                                Printf.sprintf "__order_token_%d" hz.hz_dst;
                              tile = hz.hz_dst;
                              mem_addr = a;
                              length = 1;
                              offset = 0;
                            },
                            [| 0 |] )
                          :: !new_constants;
                        a
                  in
                  for k = 0 to n_credits - 1 do
                    let landing = hw.(src_slot) in
                    hw.(src_slot) <- landing + 1;
                    (* Credit k: sent after r_k, consumed before s_{k+d}. *)
                    inserts.(dst_slot) :=
                      {
                        at_pc = hz.hz_transfers.(k).xf_recv_pc;
                        before = false;
                        ins =
                          Instr.Send
                            {
                              mem_addr = token;
                              fifo_id = ack_fifo;
                              target = hz.hz_src;
                              vec_width = 1;
                            };
                      }
                      :: !(inserts.(dst_slot));
                    inserts.(src_slot) :=
                      {
                        at_pc = hz.hz_transfers.(k + depth).xf_send_pc;
                        before = true;
                        ins =
                          Instr.Receive
                            {
                              mem_addr = landing;
                              fifo_id = ack_fifo;
                              count = 0;
                              vec_width = 1;
                            };
                      }
                      :: !(inserts.(src_slot));
                    incr credits
                  done;
                  incr repaired
                end)
        | _ -> incr skipped)
      hazards;
    let tile_src =
      Array.init ntiles (fun t ->
          if t < Array.length provenance.Codegen.tile_src then
            provenance.Codegen.tile_src.(t)
          else [||])
    in
    let tiles = Array.copy p.tiles in
    Array.iteri
      (fun slot ins_ref ->
        match (!ins_ref, !(rewrites.(slot))) with
        | [], [] -> ()
        | ins, rw ->
            let tp = tiles.(slot) in
            let base = Array.copy tp.Program.tile_code in
            List.iter (fun (pc, i) -> base.(pc) <- i) rw;
            let code, prov =
              apply_insertions base tile_src.(slot) (List.rev ins)
            in
            tiles.(slot) <- { tp with Program.tile_code = code };
            tile_src.(slot) <- prov)
      inserts;
    let p' =
      {
        p with
        Program.tiles;
        constants = p.Program.constants @ List.rev !new_constants;
      }
    in
    let provenance' = { provenance with Codegen.tile_src } in
    ( p',
      provenance',
      {
        channels_repaired = !repaired;
        credits_inserted = !credits;
        channels_split = !split;
        channels_skipped = !skipped;
      } )
  end
