module Instr = Puma_isa.Instr
module Program = Puma_isa.Program

(* The happens-before checks over one collection of events (see
   order.mli for the checks and the Halt rule).

   Event ids put every tile's TCU events first, in tile order, then
   every core's, so each stream's events are consecutive and the graph
   without core events is a prefix. A race is reported at the lower id
   of its pair: within a tile, the TCU before its cores, and core k
   before core k + 1.

   The happens-before edges (program order, single-writer shared-memory
   synchronization, single-sender channel pairing) are all sound
   orderings of the simulator, so a cycle means the program cannot run
   to completion; the symbolic run reports those ([E-DEADLOCK]), and the
   ordering checks bail out with a note. *)

type role =
  | Rsend of { fifo : int; target : int }
  | Rrecv of { fifo : int }
  | Rload
  | Rstore

type ev = {
  e_tile : int;
  e_core : int;  (* -1 = tile control unit *)
  e_pc : int;
  e_addr : int;
  e_width : int;
  e_role : role;
}

let describe (e : ev) =
  if e.e_core < 0 then Printf.sprintf "tile %d tcu pc %d" e.e_tile e.e_pc
  else Printf.sprintf "tile %d core %d pc %d" e.e_tile e.e_core e.e_pc

(* Streams are identified by (tile, core) with core = -1 for the TCU. *)
let stream_of (e : ev) = (e.e_tile, e.e_core)

(* One tile's events and its accesses per shared-memory word, over the
   tile's footprint. *)
type tile_events = {
  tile : int;
  writers : int list array;  (* per word: the event ids that write it *)
  readers : int list array;
  host : int array;  (* per word: input/constant bindings covering it *)
  dynamic : bool;  (* some core addresses smem through a register *)
}

type chan = { sends : int array; recvs : int array }

type events = {
  evs : ev array;  (* every tile's TCU events, then every core's *)
  n_tcu : int;
  tiles : tile_events array;  (* in program order *)
  chans : ((int * int) * chan) list;  (* keyed (dst tile, fifo), sorted *)
  approx : (int * int) list;  (* core streams with control flow *)
}

let has_cf code =
  Array.exists (function Instr.Jmp _ | Instr.Brn _ -> true | _ -> false) code

(* One past the last pc whose instruction can run. *)
let extent code =
  if has_cf code then Array.length code
  else
    let rec go pc =
      if pc >= Array.length code || code.(pc) = Instr.Halt then pc
      else go (pc + 1)
    in
    go 0

let collect (p : Program.t) =
  let evs = ref [] and n = ref 0 in
  let add e =
    evs := e :: !evs;
    incr n
  in
  let ev ~tile ~core ~pc ~addr ~width role =
    add
      {
        e_tile = tile;
        e_core = core;
        e_pc = pc;
        e_addr = addr;
        e_width = width;
        e_role = role;
      }
  in
  (* TCU events first, so a graph without core events is a prefix. *)
  let tcu =
    Array.map
      (fun (tp : Program.tile_program) ->
        let tile = tp.tile_index and first = !n in
        for pc = 0 to extent tp.tile_code - 1 do
          match tp.tile_code.(pc) with
          | Instr.Send { mem_addr; fifo_id; target; vec_width } ->
              ev ~tile ~core:(-1) ~pc ~addr:mem_addr ~width:vec_width
                (Rsend { fifo = fifo_id; target })
          | Instr.Receive { mem_addr; fifo_id; vec_width; _ } ->
              ev ~tile ~core:(-1) ~pc ~addr:mem_addr ~width:vec_width
                (Rrecv { fifo = fifo_id })
          | _ -> ()
        done;
        (first, !n))
      p.tiles
  in
  let n_tcu = !n and approx = ref [] in
  let cores =
    Array.map
      (fun (tp : Program.tile_program) ->
        let tile = tp.tile_index and first = !n and dynamic = ref false in
        Array.iteri
          (fun core code ->
            if has_cf code then approx := (tile, core) :: !approx;
            for pc = 0 to extent code - 1 do
              match code.(pc) with
              | Instr.Load { addr = Instr.Imm_addr a; vec_width; _ } ->
                  ev ~tile ~core ~pc ~addr:a ~width:vec_width Rload
              | Instr.Store { addr = Instr.Imm_addr a; vec_width; _ } ->
                  ev ~tile ~core ~pc ~addr:a ~width:vec_width Rstore
              | Instr.Load { addr = Instr.Sreg_addr _; _ }
              | Instr.Store { addr = Instr.Sreg_addr _; _ } ->
                  dynamic := true
              | _ -> ()
            done)
          tp.core_code;
        ((first, !n), !dynamic))
      p.tiles
  in
  let evs = Array.of_list (List.rev !evs) in
  let footprint = Program.footprint p in
  let tiles =
    Array.mapi
      (fun pos (tp : Program.tile_program) ->
        let tile = tp.tile_index in
        let words = footprint tile in
        let host = Array.make words 0 in
        let mark (b : Program.io_binding) =
          if b.tile = tile then
            for a = max b.mem_addr 0 to min (b.mem_addr + b.length) words - 1 do
              host.(a) <- host.(a) + 1
            done
        in
        List.iter mark p.inputs;
        List.iter (fun (b, _) -> mark b) p.constants;
        let writers = Array.make words [] and readers = Array.make words [] in
        let note (first, last) =
          for id = first to last - 1 do
            let e = evs.(id) in
            let words_of =
              match e.e_role with
              | Rrecv _ | Rstore -> writers
              | Rsend _ | Rload -> readers
            in
            for a = max e.e_addr 0 to min (e.e_addr + e.e_width) words - 1 do
              words_of.(a) <- id :: words_of.(a)
            done
          done
        in
        let cores, dynamic = cores.(pos) in
        note tcu.(pos);
        note cores;
        { tile; writers; readers; host; dynamic })
      p.tiles
  in
  let chans : (int * int, int list * int list) Hashtbl.t = Hashtbl.create 16 in
  let push key ~send id =
    let s, r = Option.value ~default:([], []) (Hashtbl.find_opt chans key) in
    Hashtbl.replace chans key (if send then (id :: s, r) else (s, id :: r))
  in
  for id = 0 to n_tcu - 1 do
    let e = evs.(id) in
    match e.e_role with
    | Rsend { fifo; target } -> push (target, fifo) ~send:true id
    | Rrecv { fifo } -> push (e.e_tile, fifo) ~send:false id
    | Rload | Rstore -> ()
  done;
  let chans =
    Hashtbl.fold
      (fun k (s, r) acc ->
        ( k,
          {
            sends = Array.of_list (List.rev s);
            recvs = Array.of_list (List.rev r);
          } )
        :: acc)
      chans []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  in
  { evs; n_tcu; tiles; chans; approx = List.rev !approx }

(* ---- The happens-before graph. ---- *)

(* Why a cross-stream edge exists; rendered only by --dump-hb. *)
type reason = Smem_word of int | Fifo of int

let render_reason = function
  | Smem_word a -> Printf.sprintf "smem[%d]" a
  | Fifo f -> Printf.sprintf "fifo %d" f

type graph = {
  n : int;  (* events [0, n) are in the graph *)
  succs : int list array;
  (* Cross-stream edges with their reason, for --dump-hb. *)
  cross : (int * int * reason) list;
  (* Candidate race pairs (a < b, representative word); confirmed or
     dismissed once reachability is known. *)
  suspects : (int * int * int) list;
  with_cores : bool;
}

(* Beyond this many events the descendant bitsets get too large; the
   graph then leaves out the core events (channel ordering stays exact,
   races go unchecked), and beyond it again is not built at all. *)
let max_events = 16384

let build_graph (c : events) =
  let total = Array.length c.evs in
  let n = if total <= max_events then total else c.n_tcu in
  if n > max_events then None
  else begin
    let evs = c.evs in
    let inside l = if n = total then l else List.filter (fun id -> id < n) l in
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
    (* Program order: each stream's events have consecutive ids. *)
    for id = 0 to n - 2 do
      if stream_of evs.(id) = stream_of evs.(id + 1) then add_edge id (id + 1)
    done;
    (* Shared-memory synchronization, per tile, over its footprint. *)
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
      (fun t ->
        for a = 0 to Array.length t.host - 1 do
          let readers = inside t.readers.(a) in
          match (inside t.writers.(a), t.host.(a) > 0) with
          | [], _ -> ()
          | [ w ], false ->
              (* Unique writer: every read of the word blocks until it. *)
              List.iter (fun r -> add_edge ~reason:(Smem_word a) w r) readers
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
                    readers)
                ws
        done)
      c.tiles;
    (* Channel pairing. *)
    List.iter
      (fun ((_, fifo), ch) ->
        let single_sender =
          Array.for_all
            (fun s -> stream_of evs.(s) = stream_of evs.(ch.sends.(0)))
            ch.sends
        in
        if single_sender && Array.length ch.sends = Array.length ch.recvs then
          Array.iter2 (fun s r -> add_edge ~reason:(Fifo fifo) s r) ch.sends
            ch.recvs)
      c.chans;
    Some
      {
        n;
        succs;
        cross = List.rev !cross;
        suspects = List.rev !suspects;
        with_cores = n = total;
      }
  end

(* ---- Reachability. ---- *)

type hb = { desc : int array array }

let bit_test a i = a.(i / 63) land (1 lsl (i mod 63)) <> 0

(* Kahn topological order; None on a cycle (real deadlock — reported by
   the symbolic run — or an artifact of the static-order approximation
   on streams with control flow). *)
let topo_order (g : graph) =
  let n = g.n in
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun s -> indeg.(s) <- indeg.(s) + 1)) g.succs;
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
      g.succs.(v)
  done;
  if !k = n then Some order else None

let reachability (g : graph) order =
  let n = g.n in
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
      g.succs.(v)
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

(* Single-sender channels with matched send/receive counts whose
   in-flight pressure can exceed the FIFO depth, each with its first
   HB-unordered send pair (for diagnostics). *)
let overflow_channels (p : Program.t) (c : events) (h : hb) =
  let depth = p.config.Puma_hwmodel.Config.fifo_depth in
  let evs = c.evs in
  List.filter_map
    (fun ((dst, fifo), { sends; recvs }) ->
      let n = Array.length sends in
      let single_sender =
        Array.for_all
          (fun s -> stream_of evs.(s) = stream_of evs.(sends.(0)))
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
                    xf_send_pc = evs.(sends.(k)).e_pc;
                    xf_recv_pc = evs.(recvs.(k)).e_pc;
                    xf_width = evs.(sends.(k)).e_width;
                  })
            in
            Some
              ( {
                  hz_src = evs.(sends.(0)).e_tile;
                  hz_dst = dst;
                  hz_fifo = fifo;
                  hz_transfers = transfers;
                  hz_max_pressure = !max_p;
                },
                pair )
        | Some _ | None -> None
      end)
    c.chans

(* Channels fed by several streams: any pair of sends whose order no HB
   path fixes makes arrival order (and thus receive pairing)
   timing-dependent. *)
let unordered_sender_pairs (c : events) (h : hb) =
  let evs = c.evs in
  List.filter_map
    (fun ((dst, fifo), { sends; _ }) ->
      let found = ref None in
      Array.iteri
        (fun j sj ->
          for i = 0 to j - 1 do
            let si = sends.(i) in
            if
              !found = None
              && stream_of evs.(si) <> stream_of evs.(sj)
              && (not (hb_before h si sj))
              && not (hb_before h sj si)
            then found := Some (si, sj)
          done)
        sends;
      Option.map (fun pair -> (dst, fifo, pair)) !found)
    c.chans

let happens_before (c : events) =
  match build_graph c with
  | None -> `Too_large
  | Some g -> (
      match topo_order g with
      | None -> `Cyclic g
      | Some order -> `Ok (g, reachability g order))

let hazards (p : Program.t) =
  let c = collect p in
  match happens_before c with
  | `Too_large | `Cyclic _ -> []
  | `Ok (_, h) -> List.map fst (overflow_channels p c h)

let ordering ~dump_hb (p : Program.t) (c : events) =
  let notes g =
    if not g.with_cores then []
    else
      List.map
        (fun (tile, core) ->
          Diag.info ~code:"I-ORDER" ~tile ~core
            "stream has control flow; happens-before uses static \
             instruction order (approximate)")
        c.approx
  in
  match happens_before c with
  | `Too_large ->
      [
        Diag.info ~code:"I-ORDER"
          "happens-before graph exceeds %d events; ordering analysis \
           skipped"
          max_events;
      ]
  | `Cyclic g ->
      notes g
      @ [
          Diag.info ~code:"I-ORDER"
            "happens-before graph is cyclic (a wait cycle or a \
             control-flow approximation artifact); ordering analysis \
             skipped";
        ]
  | `Ok (g, h) ->
      let evs = c.evs in
      let depth = p.config.Puma_hwmodel.Config.fifo_depth in
      let truncated =
        if g.with_cores then []
        else
          [
            Diag.info ~code:"I-ORDER"
              "happens-before graph exceeds %d events with core accesses; \
               race detection skipped (channel analysis kept)"
              max_events;
          ]
      in
      let races =
        if not g.with_cores then []
        else
          List.filter_map
            (fun (a, b, word) ->
              if hb_before h a b || hb_before h b a then None
              else
                let x = evs.(a) and y = evs.(b) in
                Some
                  (Diag.error ~code:"E-RACE" ~tile:x.e_tile
                     ?core:(if x.e_core >= 0 then Some x.e_core else None)
                     ~pc:x.e_pc
                     "%s and %s both touch smem[%d] with no happens-before \
                      order between them (at least one is a write): the \
                      value observed is timing-dependent"
                     (describe x) (describe y) word))
            g.suspects
      in
      let multi =
        List.map
          (fun (dst, fifo, (si, sj)) ->
            let x = evs.(si) and y = evs.(sj) in
            Diag.error ~code:"E-FIFO-ORDER" ~tile:dst
              "fifo %d receives sends from %s (width %d) and %s (width %d) \
               whose arrival order no happens-before path fixes; \
               per-message pairing is timing-dependent"
              fifo (describe x) x.e_width (describe y) y.e_width)
          (unordered_sender_pairs c h)
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
              hz.hz_fifo hz.hz_src hz.hz_max_pressure depth t.(i).xf_send_pc
              t.(j).xf_send_pc)
          (overflow_channels p c h)
      in
      let dump =
        if not dump_hb then []
        else
          Diag.info ~code:"I-ORDER"
            "hb graph: %d events, %d cross-stream edges%s" g.n
            (List.length g.cross)
            (if g.with_cores then "" else " (core accesses dropped)")
          :: List.map
               (fun (a, b, reason) ->
                 Diag.info ~code:"I-ORDER" "hb: %s -> %s (%s)"
                   (describe evs.(a)) (describe evs.(b))
                   (render_reason reason))
               g.cross
      in
      notes g @ truncated @ races @ multi @ overflow @ dump

let analyze ?(dump_hb = false) (p : Program.t) =
  let c = collect p in
  List.filter_map
    (fun t ->
      if t.dynamic then
        Some
          (Diag.info ~code:"I-DYNADDR" ~tile:t.tile
             "tile uses register-indirect shared-memory addressing: those \
              accesses are not race-checked")
      else None)
    (Array.to_list c.tiles)
  @ ordering ~dump_hb p c
