type item = Single of int | Mvm_group of int array

type t = { items : item array; item_core : (int * int) array }

type open_group = {
  mutable members : int list;  (* reverse order *)
  mutable mvmus : int;  (* bitmask of used MVMUs *)
}

(* The fewest cycles the simulator can spend on a node: an MVM or a
   vector ALU operation occupies its core for its full latency; staging
   (inputs, constants, gathers) and outputs are charged nothing. *)
let weight (config : Puma_hwmodel.Config.t) (n : Lgraph.lnode) =
  match n.op with
  | L_mvm _ -> Puma_hwmodel.Latency.mvm config
  | L_binop _ | L_unop _ | L_immop _ ->
      Puma_hwmodel.Latency.alu config ~vec_width:n.len
  | L_input _ | L_const _ | L_gather _ | L_output _ -> 0

(* Longest weighted path from each node to a sink, the node included.
   Preds have smaller ids than their consumers, so one backward sweep
   suffices. *)
let bottom_levels config ns cons =
  let bl = Array.make (Array.length ns) 0 in
  for id = Array.length ns - 1 downto 0 do
    bl.(id) <-
      weight config ns.(id)
      + Array.fold_left (fun acc c -> max acc bl.(c)) 0 cons.(id)
  done;
  bl

let critical_path_cycles config lg =
  Array.fold_left max 0
    (bottom_levels config (Lgraph.nodes lg) (Lgraph.consumers lg))

(* Priority list scheduling: Kahn's algorithm, releasing the ready node
   with the largest bottom level, ties by reverse-postorder position.
   One order serves every core (5.3.3).

   A register-file guard keeps the order from outrunning the registers
   {!Regalloc} will find: a node issues only if its result and its
   operands not yet resident on its core fit beside the values there that
   still await a use, sized by {!Regalloc.reg_words}, a dying operand's
   range reused in place by an element-wise result. A node that does not
   fit waits until its core frees registers; when nothing ready fits, the
   lowest unscheduled reverse-postorder node, always ready, goes next. *)
let priority_order lg (part : Partition.t) =
  let config = part.config in
  let ns = Lgraph.nodes lg in
  let n = Array.length ns in
  let cons = Lgraph.consumers lg in
  let rpo = Lgraph.reverse_postorder lg in
  let pos = Array.make n 0 in
  Array.iteri (fun i id -> pos.(id) <- i) rpo;
  let bl = bottom_levels config ns cons in
  let top = Array.fold_left max 0 bl in
  let key id = ((top - bl.(id)) * n) + pos.(id) in
  let cores_per_tile = config.cores_per_tile in
  let core_of id =
    let p = part.node_place.(id) in
    (p.Partition.tile * cores_per_tile) + p.Partition.core
  in
  let ncores =
    Array.fold_left
      (fun acc (p : Partition.place) ->
        max acc ((p.tile * cores_per_tile) + p.core + 1))
      1 part.node_place
  in
  let capacity =
    Puma_isa.Operand.size_of (Puma_isa.Operand.layout config) Gpr
  in
  let words id = Regalloc.reg_words ns.(id).Lgraph.len in
  (* One slot per value and core that consumes it, numbered in order of
     first use: the value's register words, its consumers on that core not
     yet scheduled, and whether it is resident there. [uses.(id)] lists
     the slots of [id]'s distinct operands, [own.(id)] the slot of [id] on
     its own core (-1 when nothing there consumes it). *)
  let slot_ids = Hashtbl.create n in
  let slot_of p on =
    let k = (p * ncores) + on in
    match Hashtbl.find slot_ids k with
    | s -> s
    | exception Not_found ->
        let s = Hashtbl.length slot_ids in
        Hashtbl.add slot_ids k s;
        s
  in
  let uses =
    Array.map
      (fun (nd : Lgraph.lnode) ->
        let on = core_of nd.id in
        (* A binop may read one value twice; it uses one slot. *)
        List.sort_uniq compare (Array.to_list nd.preds)
        |> List.map (fun p -> slot_of p on)
        |> Array.of_list)
      ns
  in
  let nslots = Hashtbl.length slot_ids in
  let slot_words = Array.make nslots 0 in
  Hashtbl.iter (fun k s -> slot_words.(s) <- words (k / ncores)) slot_ids;
  let left = Array.make nslots 0 in
  Array.iter (Array.iter (fun s -> left.(s) <- left.(s) + 1)) uses;
  let resident = Array.make nslots false in
  let own =
    Array.init n (fun id ->
        match ns.(id).op with
        | L_binop _ | L_unop _ | L_immop _ | L_gather _ | L_mvm _ -> (
            match Hashtbl.find slot_ids ((id * ncores) + core_of id) with
            | s -> s
            | exception Not_found -> -1)
        | L_input _ | L_const _ | L_output _ -> -1)
  in
  let live = Array.make ncores 0 in
  let fits id =
    let u = uses.(id) in
    let need = ref 0 and inplace = ref false in
    for j = 0 to Array.length u - 1 do
      let s = u.(j) in
      if not resident.(s) then need := !need + slot_words.(s);
      if left.(s) = 1 && words id <= slot_words.(s) then inplace := true
    done;
    (match ns.(id).op with
    | L_binop _ | L_unop _ | L_immop _ when !inplace -> ()
    | L_binop _ | L_unop _ | L_immop _ | L_gather _ | L_mvm _ ->
        need := !need + words id
    | L_input _ | L_const _ | L_output _ -> ());
    live.(core_of id) + !need <= capacity
  in
  (* Issue [id]; true when its core freed registers. *)
  let issue id =
    let on = core_of id in
    let u = uses.(id) in
    let freed = ref false in
    for j = 0 to Array.length u - 1 do
      let s = u.(j) in
      if not resident.(s) then begin
        resident.(s) <- true;
        live.(on) <- live.(on) + slot_words.(s)
      end;
      left.(s) <- left.(s) - 1;
      if left.(s) = 0 then begin
        resident.(s) <- false;
        live.(on) <- live.(on) - slot_words.(s);
        freed := true
      end
    done;
    let s = own.(id) in
    if s >= 0 then begin
      resident.(s) <- true;
      live.(on) <- live.(on) + slot_words.(s)
    end;
    !freed
  in
  let waiting = Array.map (fun (nd : Lgraph.lnode) -> Array.length nd.preds) ns in
  let scheduled = Array.make n false in
  let ready = Puma_util.Heap.create () in
  let parked = Array.make ncores [] in
  let push id = Puma_util.Heap.push ready (key id) id in
  Array.iteri (fun id w -> if w = 0 then push id) waiting;
  let order = Array.make n 0 in
  let next_rpo = ref 0 in
  let rec pick () =
    if Puma_util.Heap.size ready = 0 then None
    else
      let id = Puma_util.Heap.pop_value ready in
      if fits id then Some id
      else begin
        parked.(core_of id) <- id :: parked.(core_of id);
        pick ()
      end
  in
  for k = 0 to n - 1 do
    let id =
      match pick () with
      | Some id -> id
      | None ->
          while scheduled.(rpo.(!next_rpo)) do incr next_rpo done;
          rpo.(!next_rpo)
    in
    order.(k) <- id;
    scheduled.(id) <- true;
    if issue id then begin
      let on = core_of id in
      List.iter (fun w -> if not scheduled.(w) then push w) parked.(on);
      parked.(on) <- []
    end;
    Array.iter
      (fun c ->
        waiting.(c) <- waiting.(c) - 1;
        if waiting.(c) = 0 then push c)
      cons.(id)
  done;
  order

let build ~coalesce lg (part : Partition.t) =
  let order = priority_order lg part in
  let mvmus_per_core = part.config.mvmus_per_core in
  let items = ref [] in
  let cores = ref [] in
  let emit core it =
    items := it :: !items;
    cores := core :: !cores
  in
  (* One open group per core. *)
  let open_groups : (int * int, open_group) Hashtbl.t = Hashtbl.create 16 in
  (* Which open group (by core) holds a given lnode. *)
  let member_core : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let flush core =
    match Hashtbl.find_opt open_groups core with
    | None -> ()
    | Some g ->
        Hashtbl.remove open_groups core;
        List.iter (fun m -> Hashtbl.remove member_core m) g.members;
        emit core (Mvm_group (Array.of_list (List.rev g.members)))
  in
  let core_of id =
    let p = part.node_place.(id) in
    (p.Partition.tile, p.Partition.core)
  in
  Array.iter
    (fun id ->
      let n = Lgraph.node lg id in
      (* Consuming a pending member's output forces its group to fire. *)
      Array.iter
        (fun p ->
          match Hashtbl.find_opt member_core p with
          | Some core -> flush core
          | None -> ())
        n.preds;
      match n.op with
      | Lgraph.L_mvm { slot } when coalesce ->
          let core = core_of id in
          let mvmu_bit = 1 lsl Partition.mvmu_of_slot part slot in
          let joinable g =
            g.mvmus land mvmu_bit = 0
            && List.length g.members < mvmus_per_core
          in
          (match Hashtbl.find_opt open_groups core with
          | Some g when joinable g ->
              g.members <- id :: g.members;
              g.mvmus <- g.mvmus lor mvmu_bit;
              Hashtbl.replace member_core id core
          | Some _ | None ->
              flush core;
              Hashtbl.replace open_groups core
                { members = [ id ]; mvmus = mvmu_bit };
              Hashtbl.replace member_core id core)
      | Lgraph.L_mvm _ -> emit (core_of id) (Mvm_group [| id |])
      | Lgraph.L_input _ | L_const _ | L_binop _ | L_unop _ | L_immop _
      | L_gather _ | L_output _ ->
          emit (core_of id) (Single id))
    order;
  (* Flush any remaining open groups. *)
  let remaining = Hashtbl.fold (fun core _ acc -> core :: acc) open_groups [] in
  List.iter flush remaining;
  {
    items = Array.of_list (List.rev !items);
    item_core = Array.of_list (List.rev !cores);
  }

let num_mvm_instructions t =
  Array.fold_left
    (fun acc it -> match it with Mvm_group _ -> acc + 1 | Single _ -> acc)
    0 t.items

let max_group_size t =
  Array.fold_left
    (fun acc it ->
      match it with
      | Mvm_group ms -> max acc (Array.length ms)
      | Single _ -> acc)
    0 t.items
