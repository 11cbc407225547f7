module Instr = Puma_isa.Instr
module Program = Puma_isa.Program

(* Happens-before analysis over the spatial program.

   Events are the synchronizing operations of every stream (each core
   plus the tile control unit of every tile): shared-memory accesses and
   channel sends/receives. The happens-before partial order is the
   transitive closure of
     - program order within a stream,
     - single-writer shared-memory synchronization (a read of a word
       blocks until its unique writer has produced it, whether the word
       is counted or persistent), and
     - channel pairing (the k-th send on a single-sender fifo is
       consumed by the k-th receive).
   All three edge kinds are sound orderings of the simulator, so any
   cycle means the program cannot run to completion; the channel
   deadlock pass reports those, and this pass bails out quietly.

   On top of the partial order we check:
     - [E-RACE]: two accesses to the same shared-memory word, at least
       one a write and not both from the same stream, that are
       HB-unordered. Single-writer words cannot race (the read blocks on
       the write); races arise only on multi-writer words or words both
       host-initialized and runtime-written.
     - [E-FIFO-ORDER]: per (dst, fifo) channel, either sends from
       different streams whose arrival order no HB path fixes (pairing
       is then timing-dependent), or a single-sender channel whose
       in-flight pressure can exceed the receive-FIFO depth. Pressure of
       the j-th send is 1 + #{i < j : NOT hb(recv_i, send_j)}: packets
       whose receive is not guaranteed to have retired when send_j
       issues. The NoC delivers each channel in order whatever the
       pressure; at most [fifo_depth] means no delivery ever finds the
       FIFO full, so the channel needs no buffering beyond the receive
       FIFO, while above the depth packets wait in the network. *)

type access = { a_addr : int; a_width : int; a_write : bool }

type role =
  | Rsend of { fifo : int; target : int }
  | Rrecv of { fifo : int }
  | Rmem

type ev = {
  e_tile : int;
  e_core : int;  (* -1 = tile control unit *)
  e_pc : int;
  e_access : access option;
  e_role : role;
}

let describe (e : ev) =
  if e.e_core < 0 then Printf.sprintf "tile %d tcu pc %d" e.e_tile e.e_pc
  else Printf.sprintf "tile %d core %d pc %d" e.e_tile e.e_core e.e_pc

(* Streams are identified by (tile, core) with core = -1 for the TCU. *)
let stream_of (e : ev) = (e.e_tile, e.e_core)

type chan = {
  mutable c_sends : int list;  (* event ids, reversed *)
  mutable c_recvs : int list;  (* event ids, reversed *)
}

(* Why a cross-stream edge exists; rendered only by --dump-hb. *)
type reason = Smem_word of int | Fifo of int

let render_reason = function
  | Smem_word a -> Printf.sprintf "smem[%d]" a
  | Fifo f -> Printf.sprintf "fifo %d" f

type build = {
  evs : ev array;
  succs : int list array;
  (* Cross-stream edges with their reason, for --dump-hb. *)
  cross : (int * int * reason) list;
  chans : ((int * int) * chan) list;  (* keyed (dst tile, fifo), sorted *)
  (* Candidate race pairs (a < b, representative word); confirmed or
     dismissed once reachability is known. *)
  suspects : (int * int * int) list;
  notes : Diag.t list;
  with_cores : bool;
}

(* Beyond this many events the descendant bitsets get too large; we
   first retry with core smem events dropped (keeping channel analysis
   exact), then give up entirely. *)
let max_events = 16384

let collect ~with_cores (p : Program.t) =
  let evs = ref [] and n = ref 0 in
  let add e =
    evs := e :: !evs;
    incr n;
    !n - 1
  in
  let streams = ref [] and approx = ref [] in
  Array.iter
    (fun (tp : Program.tile_program) ->
      let tile = tp.tile_index in
      let ids = ref [] in
      (try
         Array.iteri
           (fun pc i ->
             match i with
             | Instr.Send { mem_addr; fifo_id; target; vec_width } ->
                 ids :=
                   add
                     {
                       e_tile = tile;
                       e_core = -1;
                       e_pc = pc;
                       e_access =
                         Some
                           { a_addr = mem_addr; a_width = vec_width; a_write = false };
                       e_role = Rsend { fifo = fifo_id; target };
                     }
                   :: !ids
             | Instr.Receive { mem_addr; fifo_id; vec_width; _ } ->
                 ids :=
                   add
                     {
                       e_tile = tile;
                       e_core = -1;
                       e_pc = pc;
                       e_access =
                         Some
                           { a_addr = mem_addr; a_width = vec_width; a_write = true };
                       e_role = Rrecv { fifo = fifo_id };
                     }
                   :: !ids
             | Instr.Halt -> raise Exit
             | _ -> ())
           tp.tile_code
       with Exit -> ());
      streams := List.rev !ids :: !streams;
      if with_cores then
        Array.iteri
          (fun core code ->
            let ids = ref [] in
            let has_cf =
              Array.exists
                (function Instr.Jmp _ | Instr.Brn _ -> true | _ -> false)
                code
            in
            if has_cf then approx := (tile, core) :: !approx;
            (try
               Array.iteri
                 (fun pc i ->
                   match i with
                   | Instr.Load { addr = Instr.Imm_addr a; vec_width; _ } ->
                       ids :=
                         add
                           {
                             e_tile = tile;
                             e_core = core;
                             e_pc = pc;
                             e_access =
                               Some
                                 { a_addr = a; a_width = vec_width; a_write = false };
                             e_role = Rmem;
                           }
                         :: !ids
                   | Instr.Store { addr = Instr.Imm_addr a; vec_width; _ } ->
                       ids :=
                         add
                           {
                             e_tile = tile;
                             e_core = core;
                             e_pc = pc;
                             e_access =
                               Some
                                 { a_addr = a; a_width = vec_width; a_write = true };
                             e_role = Rmem;
                           }
                         :: !ids
                   | Instr.Halt when not has_cf -> raise Exit
                   | _ -> ())
                 code
             with Exit -> ());
            streams := List.rev !ids :: !streams)
          tp.core_code)
    p.tiles;
  (Array.of_list (List.rev !evs), List.rev !streams, List.rev !approx)

let build_graph ~with_cores (p : Program.t) =
  let evs, streams, approx = collect ~with_cores p in
  let n = Array.length evs in
  if n > max_events then None
  else begin
    let succs = Array.make n [] in
    let cross = ref [] in
    let edge_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let add_edge ?reason a b =
      if a <> b && not (Hashtbl.mem edge_seen (a, b)) then begin
        Hashtbl.add edge_seen (a, b) ();
        succs.(a) <- b :: succs.(a);
        match reason with
        | Some r when stream_of evs.(a) <> stream_of evs.(b) ->
            cross := (a, b, r) :: !cross
        | _ -> ()
      end
    in
    (* Program order. *)
    List.iter
      (fun ids ->
        let rec link = function
          | a :: (b :: _ as rest) ->
              add_edge a b;
              link rest
          | _ -> []
        in
        ignore (link ids))
      streams;
    (* Shared-memory synchronization, per tile, over its footprint. *)
    let footprint = Program.footprint p in
    let suspects = ref [] in
    let suspect_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let add_suspect a b word =
      let a, b = if a < b then (a, b) else (b, a) in
      if not (Hashtbl.mem suspect_seen (a, b)) then begin
        Hashtbl.add suspect_seen (a, b) ();
        suspects := (a, b, word) :: !suspects
      end
    in
    Array.iter
      (fun (tp : Program.tile_program) ->
        let tile = tp.tile_index in
        let smem_words = footprint tile in
        let host = Array.make smem_words false in
        let mark (b : Program.io_binding) =
          if b.tile = tile then
            for a = b.mem_addr to min (b.mem_addr + b.length) smem_words - 1 do
              host.(a) <- true
            done
        in
        List.iter mark p.inputs;
        List.iter (fun (b, _) -> mark b) p.constants;
        let writers = Array.make smem_words [] in
        let readers = Array.make smem_words [] in
        Array.iteri
          (fun id (e : ev) ->
            if e.e_tile = tile then
              match e.e_access with
              | Some { a_addr; a_width; a_write } ->
                  for a = a_addr to min (a_addr + a_width) smem_words - 1 do
                    if a >= 0 then
                      if a_write then writers.(a) <- id :: writers.(a)
                      else readers.(a) <- id :: readers.(a)
                  done
              | None -> ())
          evs;
        for a = 0 to smem_words - 1 do
          match (writers.(a), host.(a)) with
          | [], _ -> ()
          | [ w ], false ->
              (* Unique writer: every read of the word blocks until it. *)
              List.iter
                (fun r ->
                  add_edge ~reason:(Smem_word a) w r)
                readers.(a)
          | ws, _ ->
              (* Multiple writers (or a host-initialized word overwritten
                 at runtime): blocking no longer pins which value a read
                 sees, so unordered access pairs are races. *)
              let rec pairs = function
                | [] -> ()
                | w :: rest ->
                    List.iter
                      (fun w' ->
                        if stream_of evs.(w) <> stream_of evs.(w') then
                          add_suspect w w' a)
                      rest;
                    pairs rest
              in
              pairs ws;
              List.iter
                (fun w ->
                  List.iter
                    (fun r ->
                      if stream_of evs.(w) <> stream_of evs.(r) then
                        add_suspect w r a)
                    readers.(a))
                ws
        done)
      p.tiles;
    (* Channel pairing. *)
    let chans : (int * int, chan) Hashtbl.t = Hashtbl.create 16 in
    let chan key =
      match Hashtbl.find_opt chans key with
      | Some c -> c
      | None ->
          let c = { c_sends = []; c_recvs = [] } in
          Hashtbl.add chans key c;
          c
    in
    Array.iteri
      (fun id (e : ev) ->
        match e.e_role with
        | Rsend { fifo; target } ->
            let c = chan (target, fifo) in
            c.c_sends <- id :: c.c_sends
        | Rrecv { fifo } ->
            let c = chan (e.e_tile, fifo) in
            c.c_recvs <- id :: c.c_recvs
        | Rmem -> ())
      evs;
    let chan_list =
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) chans []
      |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
    in
    List.iter
      (fun ((_, fifo), c) ->
        let sends = List.rev c.c_sends and recvs = List.rev c.c_recvs in
        let single_sender =
          match sends with
          | [] -> true
          | s :: rest ->
              List.for_all
                (fun s' -> stream_of evs.(s') = stream_of evs.(s))
                rest
        in
        if single_sender && List.length sends = List.length recvs then
          List.iter2
            (fun s r -> add_edge ~reason:(Fifo fifo) s r)
            sends recvs)
      chan_list;
    let notes =
      List.rev_map
        (fun (tile, core) ->
          Diag.info ~code:"I-ORDER" ~tile ~core
            "stream has control flow; happens-before uses static \
             instruction order (approximate)")
        approx
      |> List.rev
    in
    Some
      {
        evs;
        succs;
        cross = List.rev !cross;
        chans = chan_list;
        suspects = List.rev !suspects;
        notes;
        with_cores;
      }
  end

(* ---- Reachability. ---- *)

type hb = { desc : int array array }

let bit_test a i = a.(i / 63) land (1 lsl (i mod 63)) <> 0

(* Kahn topological order; None on a cycle (real deadlock — reported by
   the channel pass — or an artifact of the static-order approximation
   on streams with control flow). *)
let topo_order (b : build) =
  let n = Array.length b.evs in
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun s -> indeg.(s) <- indeg.(s) + 1)) b.succs;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = Array.make n 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    order.(!k) <- v;
    incr k;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      b.succs.(v)
  done;
  if !k = n then Some order else None

let reachability (b : build) order =
  let n = Array.length b.evs in
  let words = (n + 62) / 63 in
  let desc = Array.init n (fun _ -> Array.make words 0) in
  for k = n - 1 downto 0 do
    let v = order.(k) in
    let dv = desc.(v) in
    List.iter
      (fun s ->
        dv.(s / 63) <- dv.(s / 63) lor (1 lsl (s mod 63));
        let ds = desc.(s) in
        for w = 0 to words - 1 do
          dv.(w) <- dv.(w) lor ds.(w)
        done)
      b.succs.(v)
  done;
  { desc }

let hb_before (h : hb) a b = a <> b && bit_test h.desc.(a) b

(* ---- Channel hazards. ---- *)

type transfer = { xf_send_pc : int; xf_recv_pc : int; xf_width : int }

type hazard = {
  hz_src : int;
  hz_dst : int;
  hz_fifo : int;
  hz_transfers : transfer array;
  hz_max_pressure : int;
}

let width_of (e : ev) =
  match e.e_access with Some a -> a.a_width | None -> 0

(* Single-sender channels with matched send/receive counts whose
   in-flight pressure can exceed the FIFO depth, each with its first
   HB-unordered send pair (for diagnostics). *)
let overflow_channels (p : Program.t) (b : build) (h : hb) =
  let depth = p.config.Puma_hwmodel.Config.fifo_depth in
  List.filter_map
    (fun (((dst, fifo), c) : (int * int) * chan) ->
      let sends = Array.of_list (List.rev c.c_sends) in
      let recvs = Array.of_list (List.rev c.c_recvs) in
      let n = Array.length sends in
      let single_sender =
        n = 0
        || Array.for_all
             (fun s -> stream_of b.evs.(s) = stream_of b.evs.(sends.(0)))
             sends
      in
      if n = 0 || (not single_sender) || Array.length recvs <> n then None
      else begin
        let max_p = ref 0 and pair = ref None in
        for j = 0 to n - 1 do
          let pressure = ref 1 in
          for i = 0 to j - 1 do
            if not (hb_before h recvs.(i) sends.(j)) then begin
              incr pressure;
              if !pair = None then pair := Some (i, j)
            end
          done;
          if !pressure > !max_p then max_p := !pressure
        done;
        match !pair with
        | Some pair when !max_p > depth ->
            let transfers =
              Array.init n (fun k ->
                  {
                    xf_send_pc = b.evs.(sends.(k)).e_pc;
                    xf_recv_pc = b.evs.(recvs.(k)).e_pc;
                    xf_width = width_of b.evs.(sends.(k));
                  })
            in
            Some
              ( {
                  hz_src = b.evs.(sends.(0)).e_tile;
                  hz_dst = dst;
                  hz_fifo = fifo;
                  hz_transfers = transfers;
                  hz_max_pressure = !max_p;
                },
                pair )
        | Some _ | None -> None
      end)
    b.chans

(* Channels fed by several streams: any pair of sends whose order no HB
   path fixes makes arrival order (and thus receive pairing)
   timing-dependent. *)
let unordered_sender_pairs (b : build) (h : hb) =
  List.filter_map
    (fun (((dst, fifo), c) : (int * int) * chan) ->
      let sends = Array.of_list (List.rev c.c_sends) in
      let multi =
        Array.length sends > 1
        && Array.exists
             (fun s -> stream_of b.evs.(s) <> stream_of b.evs.(sends.(0)))
             sends
      in
      if not multi then None
      else begin
        let found = ref None in
        Array.iteri
          (fun j sj ->
            for i = 0 to j - 1 do
              let si = sends.(i) in
              if
                !found = None
                && stream_of b.evs.(si) <> stream_of b.evs.(sj)
                && (not (hb_before h si sj))
                && not (hb_before h sj si)
              then found := Some (si, sj)
            done)
          sends;
        Option.map (fun pair -> (dst, fifo, pair)) !found
      end)
    b.chans

let prepare ~with_cores p =
  match build_graph ~with_cores p with
  | None -> Error None
  | Some b -> (
      match topo_order b with
      | None -> Error (Some b)
      | Some order -> Ok (b, reachability b order))

(* Build the graph, dropping core events if the full graph is too
   large. *)
let prepare_capped p =
  match prepare ~with_cores:true p with
  | Error None -> (
      match prepare ~with_cores:false p with
      | Error None -> `Too_large
      | Error (Some b) -> `Cyclic b
      | Ok (b, h) -> `Truncated (b, h))
  | Error (Some b) -> `Cyclic b
  | Ok (b, h) -> `Ok (b, h)

let hazards (p : Program.t) =
  match prepare_capped p with
  | `Too_large | `Cyclic _ -> []
  | `Ok (b, h) | `Truncated (b, h) ->
      List.map fst (overflow_channels p b h)

let analyze ?(dump_hb = false) (p : Program.t) =
  match prepare_capped p with
  | `Too_large ->
      [
        Diag.info ~code:"I-ORDER"
          "happens-before graph exceeds %d events; ordering analysis \
           skipped"
          max_events;
      ]
  | `Cyclic b ->
      b.notes
      @ [
          Diag.info ~code:"I-ORDER"
            "happens-before graph is cyclic (a wait cycle or a \
             control-flow approximation artifact); ordering analysis \
             skipped";
        ]
  | (`Ok (b, h) | `Truncated (b, h)) as r ->
      let depth = p.config.Puma_hwmodel.Config.fifo_depth in
      let truncated =
        match r with
        | `Truncated _ ->
            [
              Diag.info ~code:"I-ORDER"
                "happens-before graph exceeds %d events with core \
                 accesses; race detection skipped (channel analysis \
                 kept)"
                max_events;
            ]
        | _ -> []
      in
      let races =
        if not b.with_cores then []
        else
          List.map
            (fun (a, bb, word) ->
              let x = b.evs.(a) and y = b.evs.(bb) in
              Diag.error ~code:"E-RACE" ~tile:x.e_tile
                ?core:(if x.e_core >= 0 then Some x.e_core else None)
                ~pc:x.e_pc
                "%s and %s both touch smem[%d] with no happens-before \
                 order between them (at least one is a write): the value \
                 observed is timing-dependent"
                (describe x) (describe y) word)
            (List.filter
               (fun (a, bb, _) ->
                 (not (hb_before h a bb)) && not (hb_before h bb a))
               b.suspects)
      in
      let multi =
        List.map
          (fun (dst, fifo, (si, sj)) ->
            let x = b.evs.(si) and y = b.evs.(sj) in
            Diag.error ~code:"E-FIFO-ORDER" ~tile:dst
              "fifo %d receives sends from %s (width %d) and %s (width \
               %d) whose arrival order no happens-before path fixes; \
               per-message pairing is timing-dependent"
              fifo (describe x) (width_of x) (describe y) (width_of y))
          (unordered_sender_pairs b h)
      in
      let overflow =
        List.map
          (fun (hz, (i, j)) ->
            let t = hz.hz_transfers in
            Diag.error ~code:"E-FIFO-ORDER" ~tile:hz.hz_dst
              ~pc:t.(j).xf_recv_pc
              "fifo %d from tile %d: up to %d packets in flight exceed the \
               %d-deep receive FIFO (sends at pc %d and pc %d are \
               unordered): the excess needs network buffering beyond the \
               receive FIFO"
              hz.hz_fifo hz.hz_src hz.hz_max_pressure depth
              t.(i).xf_send_pc t.(j).xf_send_pc)
          (overflow_channels p b h)
      in
      let dump =
        if not dump_hb then []
        else begin
          let cross_edges =
            List.map
              (fun (a, bb, reason) ->
                Diag.info ~code:"I-ORDER" "hb: %s -> %s (%s)"
                  (describe b.evs.(a))
                  (describe b.evs.(bb))
                  (render_reason reason))
              b.cross
          in
          Diag.info ~code:"I-ORDER"
            "hb graph: %d events, %d cross-stream edges%s"
            (Array.length b.evs) (List.length b.cross)
            (if b.with_cores then "" else " (core accesses dropped)")
          :: cross_edges
        end
      in
      b.notes @ truncated @ races @ multi @ overflow @ dump
