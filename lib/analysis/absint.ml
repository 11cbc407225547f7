(* Generic worklist dataflow solver over {!Cfg}, parametric in a
   finite-height abstract domain. Clients: {!Regflow} (must-defined /
   liveness bitsets, the latter read by {!Resource}'s register
   pressure). *)

(* Compact bitsets over the combined register space: one bit per vector
   register word, then one bit per scalar register. *)
module Bset = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) / 8) '\000'

  let copy = Bytes.copy
  let equal = Bytes.equal

  let get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set b i =
    Bytes.set b (i lsr 3)
      (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

  let clear b i =
    Bytes.set b (i lsr 3)
      (Char.chr (Char.code (Bytes.get b (i lsr 3)) land lnot (1 lsl (i land 7))))

  let inter_into dst src =
    for k = 0 to Bytes.length dst - 1 do
      Bytes.set dst k
        (Char.chr (Char.code (Bytes.get dst k) land Char.code (Bytes.get src k)))
    done

  let union_into dst src =
    for k = 0 to Bytes.length dst - 1 do
      Bytes.set dst k
        (Char.chr (Char.code (Bytes.get dst k) lor Char.code (Bytes.get src k)))
    done
end

type direction = Forward | Backward

module type DOMAIN = sig
  type state

  val copy : state -> state
  val equal : state -> state -> bool

  val join : state -> state -> state
  (** Least upper bound; may mutate and return its first argument. *)
end

module Make (D : DOMAIN) = struct
  (* Block-level fixpoint by chaotic iteration. [state.(b)] is the
     boundary state of block [b]: its entry state under [Forward], the
     state at its end (after all successors' contributions) under
     [Backward]. [None] marks blocks no contribution ever reached.
     [transfer ~pc s] is the abstract effect of one instruction; it may
     mutate and return [s] (always a private copy). It is an argument,
     not part of the domain, so a client's per-run context lives in the
     closure and nothing outlives the solve. *)
  let solve ?(direction = Forward) ~entry ~transfer (cfg : Cfg.t) =
    let nb = Cfg.num_blocks cfg in
    let state : D.state option array = Array.make nb None in
    if nb > 0 then begin
      let preds = Cfg.preds cfg in
      let edges_in b =
        match direction with
        | Forward -> preds.(b)
        | Backward -> cfg.Cfg.blocks.(b).Cfg.succs
      in
      (* Backward mode seeds every block: exit edges are implicit in the
         CFG (falling off the stream, Halt, out-of-range targets), and
         blocks on exit-free cycles must still iterate to their fixpoint.
         The boundary state must therefore be neutral for [join] (true
         for the union-style backward domains used here). *)
      let seeded b =
        match direction with Forward -> b = 0 | Backward -> true
      in
      let block_out b =
        Option.map
          (fun s ->
            let { Cfg.first; last; _ } = cfg.Cfg.blocks.(b) in
            let s = ref (D.copy s) in
            for k = 0 to last - first do
              let pc =
                match direction with Forward -> first + k | Backward -> last - k
              in
              s := transfer ~pc !s
            done;
            !s)
          state.(b)
      in
      let order k =
        match direction with Forward -> k | Backward -> nb - 1 - k
      in
      (* The join of [b]'s contributions as a fresh state. An out state
         may feed several blocks, so it is copied before joining into. *)
      let incoming outs b =
        let ins = List.filter_map (fun p -> outs.(p)) (edges_in b) in
        match ins with
        | _ when seeded b -> Some (List.fold_left D.join (entry ()) ins)
        | [] -> None
        | first :: rest -> Some (List.fold_left D.join (D.copy first) rest)
      in
      (* Blocks are visited in order (reverse under [Backward]), each
         out state recomputed as soon as its block's state moves. With
         no back edge every contribution into a block is final when the
         block is reached, so the first pass is the fixpoint and no
         confirming pass runs. *)
      let back_edge =
        Array.to_seqi cfg.Cfg.blocks
        |> Seq.exists (fun (b, blk) -> List.exists (( >= ) b) blk.Cfg.succs)
      in
      let outs = Array.make nb None in
      let rec pass () =
        let changed = ref false in
        for k = 0 to nb - 1 do
          let b = order k in
          let moved =
            match (incoming outs b, state.(b)) with
            | None, _ -> None
            | Some ni, None -> Some ni
            | Some ni, Some cur ->
                let cand = D.join ni cur in
                if D.equal cur cand then None else Some cand
          in
          Option.iter
            (fun s ->
              state.(b) <- Some s;
              outs.(b) <- block_out b;
              changed := true)
            moved
        done;
        if back_edge && !changed then pass ()
      in
      pass ()
    end;
    state
end
