module Program = Puma_isa.Program
module Tile = Puma_tile.Tile
module Fastexec = Puma_tile.Fastexec
module Core = Puma_arch.Core
module Network = Puma_noc.Network
module Fabric = Puma_noc.Fabric
module Energy = Puma_hwmodel.Energy
module Fixed = Puma_util.Fixed
module Heap = Puma_util.Heap

exception Deadlock of string

(* Low-level instrumentation callbacks fired by the run loop. [core = -1]
   designates the tile control unit. The probe is the one observer slot,
   behind [Puma_profile.Profile]; when it is [None] the run
   loop pays one branch per event and allocates nothing. *)
type probe = {
  on_run_start : now:int -> unit;
  on_retire :
    now:int -> tile:int -> core:int -> cycles:int -> Puma_isa.Instr.t -> unit;
  on_stall : now:int -> tile:int -> core:int -> Core.stall -> unit;
  on_halt : now:int -> tile:int -> core:int -> unit;
  on_deliver : now:int -> tile:int -> fifo:int -> occupancy:int -> unit;
  on_run_end : now:int -> unit;
}

let null_probe =
  {
    on_run_start = (fun ~now:_ -> ());
    on_retire = (fun ~now:_ ~tile:_ ~core:_ ~cycles:_ _ -> ());
    on_stall = (fun ~now:_ ~tile:_ ~core:_ _ -> ());
    on_halt = (fun ~now:_ ~tile:_ ~core:_ -> ());
    on_deliver = (fun ~now:_ ~tile:_ ~fifo:_ ~occupancy:_ -> ());
    on_run_end = (fun ~now:_ -> ());
  }

type t = {
  program : Program.t;
  config : Puma_hwmodel.Config.t;
  energy : Energy.t;
  tiles : Tile.t array;
  network : Network.t;
  core_ready : int array array;
  tcu_ready : int array;
  mutable last_run_fast : bool;
  mutable now : int;
  mutable total_cycles : int;
  mutable probe : probe option;
}

let cycle_cap = 200_000_000

let assemble ~energy ~network (program : Program.t) tiles =
  let ntiles = Array.length tiles in
  {
    program;
    config = program.config;
    energy;
    tiles;
    network;
    core_ready =
      Array.init ntiles (fun _ -> Array.make program.config.cores_per_tile 0);
    tcu_ready = Array.make ntiles 0;
    last_run_fast = false;
    now = 0;
    total_cycles = 0;
    probe = None;
  }

let create ?(noise_seed = 42) ?faults ?energy (program : Program.t) =
  let config = program.config in
  let energy =
    match energy with Some e -> e | None -> Energy.create config
  in
  let ntiles = Array.length program.tiles in
  (* A tile's shared memory holds just the words its program can touch:
     no static access or binding reaches past its footprint, and a
     register-indirect access gets the whole capacity. *)
  let footprint = Program.footprint program in
  let tiles =
    Array.mapi
      (fun i (tp : Program.tile_program) ->
        Tile.create ~smem_words:(footprint i) config ~index:tp.tile_index
          ~energy ~core_code:tp.core_code ~tile_code:tp.tile_code)
      program.tiles
  in
  (* Program the crossbars (serial configuration-time writes). *)
  let rng =
    if config.write_noise_sigma > 0.0 then
      Some (Puma_util.Rng.create noise_seed)
    else None
  in
  Array.iteri
    (fun ti (tp : Program.tile_program) ->
      List.iter
        (fun (img : Program.mvmu_image) ->
          let core = Tile.core tiles.(ti) img.core_index in
          (* Realize the fault plan per stack: a stack with nothing to
             inject or remap gets [None] and keeps the exact fast path,
             so a zero-fault plan is bit-identical to no plan. *)
          let fault =
            Option.bind faults (fun plan ->
                Puma_xbar.Fault.realize plan ~config ~tile:ti
                  ~core:img.core_index ~mvmu:img.mvmu_index)
          in
          Core.program_mvmu core ~index:img.mvmu_index ?rng ?fault img.image)
        tp.mvmu_images)
    program.tiles;
  (* Preload constants. *)
  List.iter
    (fun ((b : Program.io_binding), raw) ->
      Tile.host_write tiles.(b.tile) ~addr:b.mem_addr ~values:raw)
    program.constants;
  (* Tiles past [tiles_per_node] spill onto further chips, each one
     chip-to-chip link from every other. *)
  let fabric =
    let per = config.tiles_per_node in
    Fabric.create ~topology:All_to_all
      ~nodes:(max 1 ((ntiles + per - 1) / per))
      ~tiles_per_node:per ()
  in
  assemble ~energy
    ~network:(Network.create ~fabric config ~energy ~num_tiles:(max 1 ntiles))
    program tiles

(* A runner over the concatenated tiles of [shards] (shared, not copied),
   charging the one ledger the shards share. Global tile [i] must sit at
   position [i]. *)
let join ~network (program : Program.t) shards =
  let tiles =
    Array.concat (Array.to_list (Array.map (fun s -> s.tiles) shards))
  in
  if Array.length tiles <> Array.length program.tiles then
    invalid_arg "Node.join: shards do not cover the program's tiles";
  let energy = shards.(0).energy in
  if Array.exists (fun s -> s.energy != energy) shards then
    invalid_arg "Node.join: shards must share one energy ledger";
  assemble ~energy ~network program tiles

let config t = t.config
let energy t = t.energy
let cycles t = t.total_cycles
let num_tiles t = Array.length t.tiles
let tile t i = t.tiles.(i)

let retired_instructions t =
  Array.fold_left
    (fun acc tile ->
      let per_core = ref 0 in
      for c = 0 to Tile.num_cores tile - 1 do
        per_core := !per_core + Core.retired (Tile.core tile c)
      done;
      acc + !per_core)
    0 t.tiles

let tiles_used t = Program.tiles_used t.program

let inject_inputs t inputs =
  List.iter
    (fun (b : Program.io_binding) ->
      match List.assoc_opt b.name inputs with
      | None -> invalid_arg (Printf.sprintf "Node.run: missing input %s" b.name)
      | Some data ->
          if b.offset + b.length > Array.length data then
            invalid_arg
              (Printf.sprintf "Node.run: input %s too short (%d < %d)" b.name
                 (Array.length data) (b.offset + b.length));
          let raw =
            Array.init b.length (fun k ->
                Fixed.to_raw (Fixed.of_float data.(b.offset + k)))
          in
          Tile.host_write t.tiles.(b.tile) ~addr:b.mem_addr ~values:raw)
    t.program.inputs

let read_outputs t =
  (* Group fragments by output name. *)
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (b : Program.io_binding) ->
      let frags =
        match Hashtbl.find_opt by_name b.name with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add by_name b.name l;
            l
      in
      frags := b :: !frags)
    t.program.outputs;
  Hashtbl.fold
    (fun name frags acc ->
      let total =
        List.fold_left (fun m (b : Program.io_binding) -> max m (b.offset + b.length)) 0 !frags
      in
      let out = Array.make total 0.0 in
      List.iter
        (fun (b : Program.io_binding) ->
          match Tile.host_read t.tiles.(b.tile) ~addr:b.mem_addr ~width:b.length with
          | None ->
              raise
                (Deadlock
                   (Printf.sprintf "output %s fragment at tile %d never written"
                      name b.tile))
          | Some raw ->
              Array.iteri
                (fun k v -> out.(b.offset + k) <- Fixed.to_float (Fixed.of_raw v))
                raw)
        !frags;
      (name, out) :: acc)
    by_name []

(* Advance [t.now] to the next event time, or raise [Deadlock] with the
   full entity dump: the reference mode's time advance, and the fast
   mode's deadlock report. The [now] sequence and the diagnostic text are
   part of the bit-identity contract. *)
let advance_or_deadlock t =
  let next = ref max_int in
  let consider time = if time > t.now && time < !next then next := time in
  Array.iteri
    (fun ti tile ->
      consider t.tcu_ready.(ti);
      ignore tile;
      Array.iter consider t.core_ready.(ti))
    t.tiles;
  consider (Network.next_arrival t.network);
  if !next = max_int then begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "all live entities blocked at cycle %d (in flight %d, next arrival %s)\n"
         t.now
         (Network.in_flight t.network)
         (match Network.next_arrival t.network with
          | a when a = max_int -> "none"
          | a -> string_of_int a));
    (* On a machine of several chips, each line names its chip. *)
    let where =
      let f = Network.fabric t.network in
      if Fabric.nodes f = 1 then Printf.sprintf "tile %d"
      else fun ti -> Printf.sprintf "node %d tile %d" (Fabric.node_of f ti) ti
    in
    Array.iteri
      (fun ti tile ->
        for c = 0 to Tile.num_cores tile - 1 do
          let core = Tile.core tile c in
          if not (Core.halted core) then
            Buffer.add_string buf
              (Printf.sprintf "  %s core %d blocked at pc %d\n" (where ti) c
                 (Core.pc core))
        done;
        if not (Tile.all_halted tile) then
          begin
            let rb = Tile.recv_buffer tile in
            let occ =
              String.concat ","
                (List.init (Puma_tile.Recv_buffer.num_fifos rb) (fun f ->
                     string_of_int (Puma_tile.Recv_buffer.occupancy rb ~fifo:f)))
            in
            Buffer.add_string buf
              (Printf.sprintf "  %s tcu pc %d, fifo occupancy [%s]\n"
                 (where ti) (Tile.tcu_pc tile) occ)
          end)
      t.tiles;
    raise (Deadlock (Buffer.contents buf))
  end
  else t.now <- !next

(* The probe events of one step: [r] is its step code, and [code.(pc)],
   with [pc] read before the step, is the instruction a retire completed.
   [core = -1] is the TCU. *)
let observe (p : probe) ~now ~tile ~core r code pc =
  if r >= 0 then p.on_retire ~now ~tile ~core ~cycles:r code.(pc)
  else if r = Core.r_halted then p.on_halt ~now ~tile ~core
  else p.on_stall ~now ~tile ~core (Core.stall_of_code r)

(* Drain one tile's outgoing queue into the network. NoC (and off-chip)
   energy is attributed to the sending tile. Returns whether anything was
   sent. *)
let rec drain_tile t tile =
  match Tile.pop_outgoing tile with
  | None -> false
  | Some (o : Tile.outgoing) ->
      Energy.set_scope t.energy (Tile.index tile);
      Network.send t.network ~now:o.issue_cycle
        {
          Network.src_tile = Tile.index tile;
          dst_tile = o.target_tile;
          fifo_id = o.fifo_id;
          payload = o.payload;
        };
      ignore (drain_tile t tile);
      true

(* The delivery callback of one run: offer an arrived channel head to
   its destination tile; a full receive FIFO leaves the head waiting in
   the network for a retry one cycle later. FIFO push energy lands on
   the destination, [delivered] counts accepted messages per tile (the
   TCU's parking key), and [mark] makes the tile a visit candidate. *)
let accept t delivered mark (msg : Network.message) =
  let dst = msg.dst_tile in
  Energy.set_scope t.energy dst;
  Tile.deliver t.tiles.(dst) ~fifo:msg.fifo_id ~src_tile:msg.src_tile
    ~payload:msg.payload
  && begin
    delivered.(dst) <- delivered.(dst) + 1;
    mark dst;
    (match t.probe with
    | Some p ->
        p.on_deliver ~now:t.now ~tile:dst ~fifo:msg.fifo_id
          ~occupancy:
            (Puma_tile.Recv_buffer.occupancy
               (Tile.recv_buffer t.tiles.(dst))
               ~fifo:msg.fifo_id)
    | None -> ());
    true
  end

(* The one scheduler loop. Each pass drains outgoing queues into the
   network, delivers arrived messages, steps the ready entities (TCU then
   cores, tiles ascending, energy scoped to the stepping tile) and checks
   for completion; it re-passes at the same cycle on progress (a TCU
   receive can unblock a core's load within the cycle), and otherwise
   advances time. Every entity returns [Core]'s step code.

   The mode is fixed for the run. The reference mode ([~reference:true])
   is the oracle: every core steps through [Core.step]
   ([Fastexec.interpret]), every tile is drained and visited on every
   pass, every ready entity is stepped again, and time advances by the
   [advance_or_deadlock] scan. The fast mode makes exactly the reference
   mode's step attempts minus those that provably repeat: cores step
   through the pre-decoded [Fastexec] streams, blocked and halted
   entities are parked instead of re-stepped, a tile is visited only when
   one of its entities can move, only tiles whose TCU retired are
   drained, and time advances by a heap of ready times. A probe therefore
   sees each stall reason when a stall begins or its dependency changes
   rather than on every pass, and each halt once.

   The fast mode scans no tile array: it walks two worklists in
   ascending tile order. The outbox list holds the tiles whose TCU
   retired; the candidate list holds the tiles that were woken (a ready
   time reached), delivered to, or whose parking key moved during their
   own visit. Candidates are a superset of the tiles the wake filter
   admits, so the visits, their order and the energy scopes are those of
   a scan. The reference mode puts every tile on both lists each pass. *)
let loop ~reference t ~start =
  let ntiles = Array.length t.tiles in
  let codes =
    if reference then
      Array.map
        (fun tile ->
          Array.init (Tile.num_cores tile) (fun c ->
              Fastexec.interpret (Tile.core tile c) (Tile.shared_mem tile)))
        t.tiles
    else Array.map Tile.fast_code t.tiles
  in
  (* Blocked-entity parking. A blocked attempt is effect-free and its
     outcome is a deterministic function of the tile's shared-memory
     state (cores: load/store) plus the receive-buffer state (TCU), so a
     retry against an unchanged [Shared_mem.generation] (+ the per-tile
     count of successful network deliveries, for the TCU) is guaranteed
     to block again: skipping it is unobservable. Halted entities are
     parked permanently ([never]) — a core or TCU cannot un-halt within a
     run. Parks are per-run locals; [Tile.reset] starts the next run
     fresh. The reference mode opens every park again on each pass. *)
  let never = max_int in
  let core_park =
    Array.init ntiles (fun ti ->
        Array.make (Tile.num_cores t.tiles.(ti)) (-1))
  in
  let tcu_park = Array.make ntiles (-1) in
  let delivered = Array.make ntiles 0 in
  (* Live counts of entities not yet halted, in the sense of
     [Tile.all_halted]: the TCU until it steps to halted, a core until
     [Core.halted] (a pc outside its code counts without a step). A run
     whose total is 0 is done. A tile whose count is 0 is all-halted and
     no longer visited; the reference mode keeps every tile's count open,
     so it visits every tile on every pass. *)
  let core_live =
    Array.map
      (fun tile ->
        Array.init (Tile.num_cores tile) (fun c ->
            not (Core.halted (Tile.core tile c))))
      t.tiles
  in
  let live =
    Array.map
      (Array.fold_left (fun n alive -> if alive then n + 1 else n) 1)
      core_live
  in
  let total_live = ref (Array.fold_left ( + ) 0 live) in
  let halted ti =
    if not reference then live.(ti) <- live.(ti) - 1;
    decr total_live
  in
  let tcu_live = Array.make ntiles true in
  let tcu_halted ti =
    if tcu_live.(ti) then begin
      tcu_live.(ti) <- false;
      halted ti
    end
  in
  let core_halted ti c =
    if core_live.(ti).(c) && Core.halted (Tile.core t.tiles.(ti) c) then begin
      core_live.(ti).(c) <- false;
      halted ti
    end
  in
  (* The two worklists, each an array of tile indices. The outbox list
     is emptied by each drain and filled by the visits, which ascend and
     retire a TCU at most once per tile, so it is born sorted and needs
     no membership flag. The candidate list has one ([pending]), so a
     mark is O(1). It keeps the tiles that stay candidates in place as it
     is walked; deliveries and heap pops append to it, so it is sorted
     before each walk. *)
  let obox = Array.init ntiles Fun.id in
  let nobox = ref ntiles in
  let pending = Array.make ntiles true in
  let cand = Array.init ntiles Fun.id in
  let ncand = ref ntiles in
  let mark ti =
    if not pending.(ti) then begin
      pending.(ti) <- true;
      cand.(!ncand) <- ti;
      incr ncand
    end
  in
  let accept = accept t delivered mark in
  (* Wake filter (fast mode). After a visit, an entity of the tile steps
     again only once its ready time arrives (a retire) or the tile's
     parking key moves past its park (a block). So a tile is visited when
     [woken] (set when a ready time it holds is reached) or when its key
     differs from the one read at the *start* of its last visit: an
     entity parked early in a visit must see a later entity's same-cycle
     store. *)
  let woken = Array.make ntiles true in
  let seen = Array.make ntiles (-1) in
  (* Ready times above [now], tagged with their tile. Seeded with every
     ready time left by earlier runs (a run ends when pcs leave their
     code, not when ready times pass). Its minimum and the network's next
     arrival are exactly the reference scan's next event time. *)
  let ready = Heap.create () in
  let ready_at ti time =
    if time > t.now then Heap.push ready time ti else woken.(ti) <- true
  in
  Array.iteri
    (fun ti r ->
      ready_at ti r;
      Array.iter (ready_at ti) t.core_ready.(ti))
    t.tcu_ready;
  let advance () =
    (if reference then advance_or_deadlock t
     else
       let next =
         let a = Network.next_arrival t.network in
         if a > t.now then min a (Heap.min_key ready) else Heap.min_key ready
       in
       (* Nothing pending: the shared scan finds nothing either and
          raises the deadlock dump. *)
       if next = max_int then advance_or_deadlock t else t.now <- next);
    while Heap.min_key ready <= t.now do
      let ti = Heap.pop_value ready in
      woken.(ti) <- true;
      mark ti
    done
  in
  let finished = ref false in
  while not !finished do
    if t.now - start > cycle_cap then failwith "Node.run: cycle cap exceeded";
    (* The reference mode opens every filter for each pass: it drains
       and visits every tile, and retries every ready entity. The mode is
       read from the node, not from [reference]: one more variable live
       across the pass measurably slowed the fast mode's multi-tile runs. *)
    if not t.last_run_fast then begin
      for ti = 0 to ntiles - 1 do
        obox.(ti) <- ti;
        pending.(ti) <- true;
        cand.(ti) <- ti
      done;
      nobox := ntiles;
      ncand := ntiles;
      Array.fill woken 0 ntiles true;
      Array.fill tcu_park 0 ntiles (-1);
      Array.iter
        (fun parks -> Array.fill parks 0 (Array.length parks) (-1))
        core_park
    end;
    let sent = ref false in
    for k = 0 to !nobox - 1 do
      if drain_tile t t.tiles.(obox.(k)) then sent := true
    done;
    nobox := 0;
    let arrived = Network.deliver_arrived t.network ~now:t.now accept in
    let progress = ref (!sent || arrived) in
    let n = !ncand in
    for i = 1 to n - 1 do
      let ti = cand.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && cand.(!j) > ti do
        cand.(!j + 1) <- cand.(!j);
        decr j
      done;
      cand.(!j + 1) <- ti
    done;
    let kept = ref 0 in
    for k = 0 to n - 1 do
      let ti = cand.(k) in
      let tile = t.tiles.(ti) in
      let key = Tile.smem_generation tile + delivered.(ti) in
      if live.(ti) > 0 && (woken.(ti) || key <> seen.(ti)) then begin
        woken.(ti) <- false;
        seen.(ti) <- key;
        Energy.set_scope t.energy ti;
        (if t.tcu_ready.(ti) <= t.now then
           let park = tcu_park.(ti) in
           if park <> never && park <> key then begin
             let r =
               match t.probe with
               | None -> Tile.step_tcu tile ~now:t.now
               | Some p ->
                   let pc = Tile.tcu_pc tile in
                   let r = Tile.step_tcu tile ~now:t.now in
                   observe p ~now:t.now ~tile:ti ~core:(-1) r
                     (Tile.tcu_code tile) pc;
                   r
             in
             if r >= 0 then begin
               obox.(!nobox) <- ti;
               incr nobox;
               t.tcu_ready.(ti) <- t.now + r;
               ready_at ti (t.now + r);
               progress := true
             end
             else if r = Core.r_halted then begin
               tcu_park.(ti) <- never;
               tcu_halted ti
             end
             else tcu_park.(ti) <- key
           end);
        let fc = codes.(ti) in
        let parks = core_park.(ti) in
        (* A blocked or halted step mutates nothing, so the generation is
           read again only after a retire. *)
        let gen = ref (Tile.smem_generation tile) in
        for c = 0 to Tile.num_cores tile - 1 do
          if t.core_ready.(ti).(c) <= t.now then begin
            let park = parks.(c) in
            if park <> never && park <> !gen then begin
              let r =
                match t.probe with
                | None -> Fastexec.step (Tile.core tile c) fc.(c)
                | Some p ->
                    let core = Tile.core tile c in
                    let pc = Core.pc core in
                    let r = Fastexec.step core fc.(c) in
                    observe p ~now:t.now ~tile:ti ~core:c r (Core.code core) pc;
                    r
              in
              if r >= 0 then begin
                t.core_ready.(ti).(c) <- t.now + r;
                ready_at ti (t.now + r);
                core_halted ti c;
                gen := Tile.smem_generation tile;
                progress := true
              end
              else if r = Core.r_halted then begin
                parks.(c) <- never;
                core_halted ti c
              end
              else parks.(c) <- !gen
            end
          end
        done;
        (* Still a candidate if its own visit reached a ready time or
           moved its key. *)
        if woken.(ti) || !gen + delivered.(ti) <> key then begin
          cand.(!kept) <- ti;
          incr kept
        end
        else pending.(ti) <- false
      end
      else pending.(ti) <- false
    done;
    ncand := !kept;
    Energy.set_scope t.energy (-1);
    if !total_live = 0 && Network.in_flight t.network = 0 then finished := true
    else if not !progress then advance ()
  done

(* One inference in the given mode. *)
let run_with ~reference t ~inputs =
  inject_inputs t inputs;
  Array.iter Tile.reset t.tiles;
  let start = t.now in
  (match t.probe with Some p -> p.on_run_start ~now:start | None -> ());
  t.last_run_fast <- not reference;
  loop ~reference t ~start;
  t.total_cycles <- t.total_cycles + (t.now - start);
  (match t.probe with Some p -> p.on_run_end ~now:t.now | None -> ());
  read_outputs t

let run = run_with ~reference:false
let run_reference = run_with ~reference:true

let finish_energy t =
  let cycles = Float.of_int t.total_cycles in
  Energy.add_static t.energy ~tiles:(tiles_used t) ~cycles;
  (* Under per-tile attribution, spread the (already recorded) static
     charge over the occupied tiles so the attributed rows account for the
     whole ledger. *)
  if Energy.attribution_enabled t.energy then begin
    let share = Energy.static_tile_pj t.config ~cycles in
    Array.iteri
      (fun ti tp ->
        if Program.tile_busy tp then
          Energy.attribute_pj t.energy ~tile:ti Static share)
      t.program.tiles
  end

let set_probe t probe = t.probe <- probe
let probe_attached t = t.probe <> None
let last_run_fast t = t.last_run_fast
