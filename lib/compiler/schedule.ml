type item = Single of int | Mvm_group of int array

type t = { items : item array; item_core : (int * int) array }

type open_group = {
  mutable members : int list;  (* reverse order *)
  mutable mvmus : int;  (* bitmask of used MVMUs *)
  mutable member_set : (int, unit) Hashtbl.t;
}

(* Priority list scheduling: Kahn's algorithm, releasing the ready node
   with the smallest (class, reverse-postorder position). Class 0 holds
   MVMs and the nodes that feed them (input staging), class 1 everything
   else, so each core issues its MVMs before it blocks on the partials
   and results of others. One order serves every core (5.3.3). *)
let priority_order lg =
  let ns = Lgraph.nodes lg in
  let n = Array.length ns in
  let cons = Lgraph.consumers lg in
  let pos = Array.make n 0 in
  Array.iteri (fun i id -> pos.(id) <- i) (Lgraph.reverse_postorder lg);
  let is_mvm id =
    match ns.(id).Lgraph.op with L_mvm _ -> true | _ -> false
  in
  let key id =
    (if is_mvm id || Array.exists is_mvm cons.(id) then 0 else n) + pos.(id)
  in
  let waiting = Array.map (fun (nd : Lgraph.lnode) -> Array.length nd.preds) ns in
  let ready = Puma_util.Heap.create () in
  Array.iteri (fun id w -> if w = 0 then Puma_util.Heap.push ready (key id) id) waiting;
  let order = Array.make n 0 in
  let rec drain k =
    match Puma_util.Heap.pop ready with
    | None -> assert (k = n)
    | Some (_, id) ->
        order.(k) <- id;
        Array.iter
          (fun c ->
            waiting.(c) <- waiting.(c) - 1;
            if waiting.(c) = 0 then Puma_util.Heap.push ready (key c) c)
          cons.(id);
        drain (k + 1)
  in
  drain 0;
  order

let build ~coalesce lg (part : Partition.t) =
  let order = priority_order lg in
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
              Hashtbl.replace g.member_set id ();
              Hashtbl.replace member_core id core
          | Some _ ->
              flush core;
              let g =
                { members = [ id ]; mvmus = mvmu_bit; member_set = Hashtbl.create 4 }
              in
              Hashtbl.replace g.member_set id ();
              Hashtbl.replace open_groups core g;
              Hashtbl.replace member_core id core
          | None ->
              let g =
                { members = [ id ]; mvmus = mvmu_bit; member_set = Hashtbl.create 4 }
              in
              Hashtbl.replace g.member_set id ();
              Hashtbl.replace open_groups core g;
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
