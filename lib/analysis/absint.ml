(* Generic worklist abstract interpreter over {!Cfg}, parametric in the
   abstract domain. Clients: {!Regflow} (must-defined / liveness bitsets),
   {!Range} (fixed-point intervals) and {!Resource} (liveness-based
   register pressure). *)

(* Compact bitsets over the combined register space: one bit per vector
   register word, then one bit per scalar register. Shared by the bitset
   domains and by {!Range}'s defined-register tracking. *)
module Bset = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) / 8) '\000'

  let full n =
    let b = Bytes.make ((n + 7) / 8) '\255' in
    let rem = n land 7 in
    if rem <> 0 then
      Bytes.set b (Bytes.length b - 1) (Char.chr ((1 lsl rem) - 1));
    b

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

  let count b n =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if get b i then incr c
    done;
    !c
end

type direction = Forward | Backward

module type DOMAIN = sig
  type state

  val copy : state -> state
  val equal : state -> state -> bool

  val join : state -> state -> state
  (** Least upper bound; may mutate and return its first argument. *)

  val widen : state -> state -> state
  (** [widen old next] must be an upper bound of both; called in place of
      {!join}'s result once a block has been visited more than
      [widen_after] times. Finite-height domains can pass {!join}. *)
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
  let solve ?(direction = Forward) ?(widen_after = 3) ~entry ~transfer
      (cfg : Cfg.t) =
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
        match state.(b) with
        | None -> None
        | Some s ->
            let s = ref (D.copy s) in
            let blk = cfg.Cfg.blocks.(b) in
            (match direction with
            | Forward ->
                for pc = blk.Cfg.first to blk.Cfg.last do
                  s := transfer ~pc !s
                done
            | Backward ->
                for pc = blk.Cfg.last downto blk.Cfg.first do
                  s := transfer ~pc !s
                done);
            Some !s
      in
      let visits = Array.make nb 0 in
      let changed = ref true in
      while !changed do
        changed := false;
        let outs = Array.init nb block_out in
        for k = 0 to nb - 1 do
          let b = match direction with Forward -> k | Backward -> nb - 1 - k in
          let contribs = List.filter_map (fun p -> outs.(p)) (edges_in b) in
          let contribs = if seeded b then entry () :: contribs else contribs in
          match contribs with
          | [] -> ()
          | first :: rest ->
              let ni = List.fold_left D.join (D.copy first) rest in
              (match state.(b) with
              | None ->
                  state.(b) <- Some ni;
                  visits.(b) <- 1;
                  changed := true
              | Some cur ->
                  (* Accumulate so iterates only grow even if a transfer
                     is re-run against a moving environment (the Range
                     pass re-solves streams while its shared-memory map
                     is still converging). *)
                  let cand = D.join (D.copy cur) ni in
                  if not (D.equal cur cand) then begin
                    visits.(b) <- visits.(b) + 1;
                    let cand =
                      if visits.(b) > widen_after then D.widen cur cand
                      else cand
                    in
                    if not (D.equal cur cand) then begin
                      state.(b) <- Some cand;
                      changed := true
                    end
                  end)
        done
      done
    end;
    state
end
