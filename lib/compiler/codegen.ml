module G = Puma_graph.Graph
module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Program = Puma_isa.Program
module Fixed = Puma_util.Fixed

type stats = {
  num_loads : int;
  num_stores : int;
  num_sends : int;
  num_receives : int;
  spilled_fraction : float;
  smem_high_water : int;
  mvm_instructions : int;
  total_instructions : int;
}

(* Growable instruction buffer with a parallel provenance list: each
   pushed instruction is tagged with the source-graph node currently
   being emitted (set by the emission loop; -1 for runtime glue). *)
type buf = {
  mutable rev : Instr.t list;
  mutable srcs : int list;
  mutable count : int;
}

let buf () = { rev = []; srcs = []; count = 0 }

let to_array b = Array.of_list (List.rev b.rev)
let src_array b = Array.of_list (List.rev b.srcs)

type provenance = {
  core_src : int array array array;
      (** [core_src.(tile).(core).(pc)] = source-graph node id, -1 for
          runtime glue (batch-loop control, prologue). *)
  tile_src : int array array;  (** Same for tile control streams. *)
}

let conv_binop : G.binop -> Instr.alu_op = function
  | G.Add -> Instr.Add
  | G.Sub -> Sub
  | G.Mul -> Mul
  | G.Div -> Div
  | G.Min -> Min
  | G.Max -> Max

let conv_unop : G.unop -> Instr.alu_op = function
  | G.Relu -> Instr.Relu
  | G.Sigmoid -> Sigmoid
  | G.Tanh -> Tanh
  | G.Exp -> Exp
  | G.Log -> Log

let generate (config : Puma_hwmodel.Config.t) ~wrap_batch_loop (_g : G.t) lg
    (part : Partition.t) (sched : Schedule.t) =
  (* The graph node whose emission is in progress. [push] and the
     {!Regalloc} emit callbacks close over it, so spill code is tagged
     with the node that triggered the spill. Local to this compile, so
     concurrent compiles never see each other's node. *)
  let emission_src = ref (-1) in
  let push b i =
    b.rev <- i :: b.rev;
    b.srcs <- !emission_src :: b.srcs;
    b.count <- b.count + 1
  in
  let layout = Operand.layout config in
  let ns = Lgraph.nodes lg in
  let nvals = Array.length ns in
  let items = sched.Schedule.items in
  let item_core = sched.Schedule.item_core in
  let nitems = Array.length items in
  let ntiles = max 1 part.Partition.tiles_used in
  let ncores = config.cores_per_tile in
  let home id =
    let p = part.Partition.node_place.(id) in
    (p.Partition.tile, p.Partition.core)
  in
  (* ---- Analysis pass A: consumer cores per value. ---- *)
  let cons = Lgraph.consumers lg in
  let consumer_cores =
    Array.init nvals (fun id ->
        let seen = Hashtbl.create 4 in
        Array.iter (fun c -> Hashtbl.replace seen (home c) ()) cons.(id);
        Hashtbl.fold (fun k () acc -> k :: acc) seen []
        |> List.sort compare)
  in
  let is_hosted id =
    match ns.(id).Lgraph.op with
    | L_input _ | L_const _ -> true
    | L_mvm _ | L_binop _ | L_unop _ | L_immop _ | L_gather _ | L_output _ ->
        false
  in
  let local_consumers id =
    let ht, hc = home id in
    List.filter
      (fun (t, c) -> t = ht && (c <> hc || is_hosted id))
      consumer_cores.(id)
  in
  let remote_tiles id =
    let ht, _ = home id in
    consumer_cores.(id)
    |> List.filter_map (fun (t, _) -> if t <> ht then Some t else None)
    |> List.sort_uniq compare
  in
  let remote_count id tile =
    List.length (List.filter (fun (t, _) -> t = tile) consumer_cores.(id))
  in
  (* Hosted values always get a shared-memory slot; computed values only
     when some other core consumes them. *)
  let needs_slot id =
    is_hosted id
    || local_consumers id <> []
    || remote_tiles id <> []
  in
  let home_count id =
    List.length (local_consumers id) + List.length (remote_tiles id)
  in
  (* ---- Shared-memory allocation. ---- *)
  let smem_ptr = Array.make ntiles 0 in
  let smem_words = config.smem_bytes / 2 in
  let alloc_smem tile len =
    let a = smem_ptr.(tile) in
    smem_ptr.(tile) <- a + len;
    if smem_ptr.(tile) > smem_words then
      Puma_isa.Diag.fail ~code:"E-SMEM" ~tile
        "shared memory overflows during code generation: %d words needed \
         of %d (last allocation %d words)"
        smem_ptr.(tile) smem_words len;
    a
  in
  let home_addr = Array.make nvals (-1) in
  let remote_addr : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  Array.iter
    (fun (n : Lgraph.lnode) ->
      let id = n.id in
      if needs_slot id then begin
        let ht, _ = home id in
        home_addr.(id) <- alloc_smem ht n.len;
        List.iter
          (fun rt -> Hashtbl.replace remote_addr (id, rt) (alloc_smem rt n.len))
          (remote_tiles id)
      end)
    ns;
  (* ---- FIFO virtualization: one FIFO per sender tile per receiver. ---- *)
  let senders : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (n : Lgraph.lnode) ->
      let ht, _ = home n.id in
      List.iter
        (fun rt ->
          let l =
            match Hashtbl.find_opt senders rt with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add senders rt l;
                l
          in
          if not (List.mem ht !l) then l := ht :: !l)
        (remote_tiles n.id))
    ns;
  let fifo_of ~src ~dst =
    let l = List.sort compare !(Hashtbl.find senders dst) in
    if List.length l > config.num_fifos then
      Puma_isa.Diag.fail ~code:"E-FIFO" ~tile:dst
        "code generation needs one receive FIFO per sender tile: tile %d \
         receives from %d tiles (%s) but only %d FIFOs exist"
        dst (List.length l)
        (String.concat "," (List.map string_of_int l))
        config.num_fifos;
    let rec index k = function
      | [] -> assert false
      | x :: rest -> if x = src then k else index (k + 1) rest
    in
    index 0 l
  in
  (* ---- Buffers and per-core allocators. ---- *)
  let core_bufs = Array.init ntiles (fun _ -> Array.init ncores (fun _ -> buf ())) in
  let tile_bufs = Array.init ntiles (fun _ -> buf ()) in
  let regallocs =
    Array.init ntiles (fun t ->
        Array.init ncores (fun c ->
            Regalloc.create ~layout
              ~alloc_smem:(fun len -> alloc_smem t len)
              ~emit:(fun i -> push core_bufs.(t).(c) i)))
  in
  let alloc_of (t, c) = regallocs.(t).(c) in
  (* ---- Analysis pass B: use positions per (core, value). ---- *)
  let use_positions : (int * int * int, int list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let record (t, c) id pos =
    let key = (t, c, id) in
    match Hashtbl.find_opt use_positions key with
    | Some l -> l := pos :: !l
    | None -> Hashtbl.add use_positions key (ref [ pos ])
  in
  for pos = 0 to nitems - 1 do
    let tc = item_core.(pos) in
    match items.(pos) with
    | Schedule.Single n ->
        let node = ns.(n) in
        (match node.op with
        | L_input _ | L_const _ -> ()
        | L_mvm _ | L_binop _ | L_unop _ | L_immop _ | L_gather _ | L_output _
          ->
            Array.iter (fun p -> record tc p pos) node.preds);
        (* The production-time store reads the fresh value. *)
        if (not (is_hosted n)) && needs_slot n then record tc n pos
    | Schedule.Mvm_group ms ->
        Array.iter
          (fun m ->
            record tc ns.(m).Lgraph.preds.(0) pos;
            if needs_slot m then record tc m pos)
          ms
  done;
  Hashtbl.iter
    (fun (t, c, id) l ->
      Regalloc.set_next_uses regallocs.(t).(c) ~id ~positions:(List.rev !l))
    use_positions;
  (* ---- I/O bindings. ---- *)
  let input_bindings = ref [] in
  let output_bindings = ref [] in
  let const_bindings = ref [] in
  (* ---- Post-production glue: store, send/receive, externals. ---- *)
  let check_count ~tile n =
    if n > 255 then
      Puma_isa.Diag.fail ~code:"E-COUNT" ~tile
        "code generation needs a consumer count of %d, but a store/receive \
         count holds 0..255" n;
    n
  in
  let post_production pos id =
    let node = ns.(id) in
    let ht, hc = home id in
    if needs_slot id then begin
      (if not (is_hosted id) then begin
         let alloc = alloc_of (ht, hc) in
         let r = Regalloc.use alloc ~id ~pos ~exclude:[] in
         push core_bufs.(ht).(hc)
           (Instr.Store
              {
                src = r;
                addr = Instr.Imm_addr home_addr.(id);
                count = check_count ~tile:ht (home_count id);
                vec_width = node.len;
              });
         Regalloc.consume_use alloc ~id ~pos
       end);
      List.iter
        (fun rt ->
          let fifo = fifo_of ~src:ht ~dst:rt in
          push tile_bufs.(ht)
            (Instr.Send
               {
                 mem_addr = home_addr.(id);
                 fifo_id = fifo;
                 target = rt;
                 vec_width = node.len;
               });
          push tile_bufs.(rt)
            (Instr.Receive
               {
                 mem_addr = Hashtbl.find remote_addr (id, rt);
                 fifo_id = fifo;
                 count = check_count ~tile:rt (remote_count id rt);
                 vec_width = node.len;
               }))
        (remote_tiles id);
      (* Tell consumer cores where to find the value. *)
      List.iter
        (fun (t, c) ->
          if (t, c) <> (ht, hc) || is_hosted id then
            if t = ht then
              Regalloc.add_external (alloc_of (t, c)) ~id ~len:node.len
                ~addr:home_addr.(id) ~persistent:(is_hosted id)
            else
              Regalloc.add_external (alloc_of (t, c)) ~id ~len:node.len
                ~addr:(Hashtbl.find remote_addr (id, t))
                ~persistent:false)
        consumer_cores.(id)
    end
  in
  (* ---- Emission. ---- *)
  let xbar_in_base mvmu = Operand.xbar_in layout ~mvmu ~elem:0 in
  let xbar_out_base mvmu = Operand.xbar_out layout ~mvmu ~elem:0 in
  for pos = 0 to nitems - 1 do
    let t, c = item_core.(pos) in
    let cb = core_bufs.(t).(c) in
    let alloc = alloc_of (t, c) in
    match items.(pos) with
    | Schedule.Single n -> (
        let node = ns.(n) in
        emission_src := node.Lgraph.src;
        match node.op with
        | L_input { name; offset } ->
            input_bindings :=
              {
                Program.name;
                tile = t;
                mem_addr = home_addr.(n);
                length = node.len;
                offset;
              }
              :: !input_bindings;
            post_production pos n
        | L_const data ->
            let raw = Array.map (fun f -> Fixed.to_raw (Fixed.of_float f)) data in
            const_bindings :=
              ( {
                  Program.name = "const";
                  tile = t;
                  mem_addr = home_addr.(n);
                  length = node.len;
                  offset = 0;
                },
                raw )
              :: !const_bindings;
            post_production pos n
        | L_output { name; offset } ->
            let p = node.preds.(0) in
            let r = Regalloc.use alloc ~id:p ~pos ~exclude:[ p ] in
            let addr = alloc_smem t node.len in
            push cb
              (Instr.Store
                 {
                   src = r;
                   addr = Instr.Imm_addr addr;
                   count = 0;
                   vec_width = node.len;
                 });
            Regalloc.consume_use alloc ~id:p ~pos;
            output_bindings :=
              { Program.name; tile = t; mem_addr = addr; length = node.len; offset }
              :: !output_bindings
        | L_binop op ->
            let p1 = node.preds.(0) and p2 = node.preds.(1) in
            let excl = [ p1; p2; n ] in
            let r1 = Regalloc.use alloc ~id:p1 ~pos ~exclude:excl in
            let r2 = Regalloc.use alloc ~id:p2 ~pos ~exclude:excl in
            let d =
              match Regalloc.try_inplace alloc ~src:p1 ~dst:n ~len:node.len ~pos with
              | Some d -> d
              | None -> (
                  match
                    Regalloc.try_inplace alloc ~src:p2 ~dst:n ~len:node.len ~pos
                  with
                  | Some d -> d
                  | None ->
                      Regalloc.define alloc ~id:n ~len:node.len ~pos ~exclude:excl)
            in
            push cb
              (Instr.Alu
                 {
                   op = conv_binop op;
                   dest = d;
                   src1 = r1;
                   src2 = r2;
                   vec_width = node.len;
                 });
            Regalloc.consume_use alloc ~id:p1 ~pos;
            Regalloc.consume_use alloc ~id:p2 ~pos;
            post_production pos n
        | L_unop op ->
            let p = node.preds.(0) in
            let excl = [ p; n ] in
            let r = Regalloc.use alloc ~id:p ~pos ~exclude:excl in
            let d =
              match Regalloc.try_inplace alloc ~src:p ~dst:n ~len:node.len ~pos with
              | Some d -> d
              | None -> Regalloc.define alloc ~id:n ~len:node.len ~pos ~exclude:excl
            in
            push cb
              (Instr.Alu
                 {
                   op = conv_unop op;
                   dest = d;
                   src1 = r;
                   src2 = r;
                   vec_width = node.len;
                 });
            Regalloc.consume_use alloc ~id:p ~pos;
            post_production pos n
        | L_immop op ->
            let p = node.preds.(0) in
            let excl = [ p; n ] in
            let r = Regalloc.use alloc ~id:p ~pos ~exclude:excl in
            let d =
              match Regalloc.try_inplace alloc ~src:p ~dst:n ~len:node.len ~pos with
              | Some d -> d
              | None -> Regalloc.define alloc ~id:n ~len:node.len ~pos ~exclude:excl
            in
            let aop, imm =
              match op with
              | G.Add_imm f -> (Instr.Add, Fixed.to_raw (Fixed.of_float f))
              | G.Mul_imm f -> (Instr.Mul, Fixed.to_raw (Fixed.of_float f))
            in
            push cb
              (Instr.Alui
                 { op = aop; dest = d; src1 = r; imm; vec_width = node.len });
            Regalloc.consume_use alloc ~id:p ~pos;
            post_production pos n
        | L_gather pieces ->
            (* Sources are brought in one at a time so a wide gather never
               needs more than the destination plus one source resident. *)
            let preds = node.preds in
            let d = Regalloc.define alloc ~id:n ~len:node.len ~pos ~exclude:[ n ] in
            Array.iteri
              (fun src_idx p ->
                let r = Regalloc.use alloc ~id:p ~pos ~exclude:[ n; p ] in
                Array.iter
                  (fun { Lgraph.src; src_off; piece_len; dst_off } ->
                    if src = src_idx then
                      push cb
                        (Instr.Copy
                           {
                             dest = d + dst_off;
                             src = r + src_off;
                             vec_width = piece_len;
                           }))
                  pieces;
                Regalloc.consume_use alloc ~id:p ~pos)
              preds;
            post_production pos n
        | L_mvm _ -> assert false (* MVMs always arrive as groups *))
    | Schedule.Mvm_group ms ->
        let mask = ref 0 in
        Array.iter
          (fun m ->
            let node = ns.(m) in
            emission_src := node.Lgraph.src;
            let slot =
              match node.Lgraph.op with
              | L_mvm { slot } -> slot
              | _ -> assert false
            in
            let mvmu = Partition.mvmu_of_slot part slot in
            mask := !mask lor (1 lsl mvmu);
            let p = node.preds.(0) in
            let in_len = ns.(p).Lgraph.len in
            let r = Regalloc.use alloc ~id:p ~pos ~exclude:[ p ] in
            push cb
              (Instr.Copy { dest = xbar_in_base mvmu; src = r; vec_width = in_len });
            Regalloc.consume_use alloc ~id:p ~pos)
          ms;
        emission_src := ns.(ms.(0)).Lgraph.src;
        push cb (Instr.Mvm { mask = !mask; filter = 0; stride = 0 });
        Array.iter
          (fun m ->
            let node = ns.(m) in
            emission_src := node.Lgraph.src;
            let slot =
              match node.Lgraph.op with
              | L_mvm { slot } -> slot
              | _ -> assert false
            in
            let mvmu = Partition.mvmu_of_slot part slot in
            let d = Regalloc.define alloc ~id:m ~len:node.len ~pos ~exclude:[] in
            push cb
              (Instr.Copy
                 { dest = d; src = xbar_out_base mvmu; vec_width = node.len });
            post_production pos m)
          ms
  done;
  emission_src := -1;
  (* ---- Optional batch loop (CNN control flow, Section 2.3.1). ---- *)
  let finalize_core_stream b =
    let body = to_array b in
    let body_srcs = src_array b in
    if (not wrap_batch_loop) || Array.length body = 0 then (body, body_srcs)
    else begin
      let prologue =
        [|
          Instr.Set_sreg { dest = 0; imm = 0 };
          Instr.Set_sreg { dest = 1; imm = 1 };
          Instr.Set_sreg { dest = 2; imm = 1 };
        |]
      in
      let shift = Array.length prologue in
      let shifted =
        Array.map
          (fun i ->
            match i with
            | Instr.Jmp { pc } -> Instr.Jmp { pc = pc + shift }
            | Instr.Brn b -> Instr.Brn { b with pc = b.pc + shift }
            | _ -> i)
          body
      in
      let epilogue =
        [|
          Instr.Alu_int { op = Instr.Iadd; dest = 0; src1 = 0; src2 = 2 };
          Instr.Brn { op = Instr.Blt; src1 = 0; src2 = 1; pc = shift };
        |]
      in
      ( Array.concat [ prologue; shifted; epilogue ],
        Array.concat
          [
            Array.make shift (-1);
            body_srcs;
            Array.make (Array.length epilogue) (-1);
          ] )
    end
  in
  (* ---- Assemble the program. ---- *)
  let slot_images = Array.init ntiles (fun _ -> ref []) in
  Array.iter
    (fun (s : Lgraph.slot) ->
      let t, c, m = part.Partition.slot_mvmu.(s.slot_id) in
      slot_images.(t) :=
        { Program.core_index = c; mvmu_index = m;
          image = s.image }
        :: !(slot_images.(t)))
    (Lgraph.slots lg);
  let finalized =
    Array.init ntiles (fun t -> Array.map finalize_core_stream core_bufs.(t))
  in
  let tiles =
    Array.init ntiles (fun t ->
        {
          Program.tile_index = t;
          core_code = Array.map fst finalized.(t);
          tile_code = to_array tile_bufs.(t);
          mvmu_images = List.rev !(slot_images.(t));
        })
  in
  let provenance =
    {
      core_src = Array.init ntiles (fun t -> Array.map snd finalized.(t));
      tile_src = Array.init ntiles (fun t -> src_array tile_bufs.(t));
    }
  in
  let program =
    {
      Program.config;
      tiles;
      inputs = List.rev !input_bindings;
      outputs = List.rev !output_bindings;
      constants = List.rev !const_bindings;
    }
  in
  (* ---- Statistics. ---- *)
  let num_loads = ref 0
  and num_stores = ref 0
  and num_sends = ref 0
  and num_receives = ref 0
  and num_mvms = ref 0
  and total = ref 0 in
  Program.iter_instrs program (fun i ->
      incr total;
      match i with
      | Instr.Load _ -> incr num_loads
      | Instr.Store _ -> incr num_stores
      | Instr.Send _ -> incr num_sends
      | Instr.Receive _ -> incr num_receives
      | Instr.Mvm _ -> incr num_mvms
      | _ -> ());
  let spill_loads = ref 0 and uses = ref 0 in
  Array.iter
    (Array.iter (fun ra ->
         spill_loads := !spill_loads + Regalloc.spill_loads ra;
         uses := !uses + Regalloc.total_uses ra))
    regallocs;
  let stats =
    {
      num_loads = !num_loads;
      num_stores = !num_stores;
      num_sends = !num_sends;
      num_receives = !num_receives;
      spilled_fraction =
        (if !uses = 0 then 0.0
         else Float.of_int !spill_loads /. Float.of_int !uses);
      smem_high_water = Array.fold_left max 0 smem_ptr;
      mvm_instructions = !num_mvms;
      total_instructions = !total;
    }
  in
  (program, stats, provenance)
