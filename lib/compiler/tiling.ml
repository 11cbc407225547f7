module G = Puma_graph.Graph
module Tensor = Puma_util.Tensor

let segment_count ~dim len = (len + dim - 1) / dim

let seg_len ~dim len s =
  let remaining = len - (s * dim) in
  min dim remaining

let lower ~dim (g : G.t) =
  let lg = Lgraph.create ~dim in
  (* Source-graph node currently being lowered; every lowered node
     (including gather glue emitted by the window helpers) is tagged with
     it for layer-level provenance. *)
  let cur_src = ref (-1) in
  let add_node lg ~op ~preds ~len =
    Lgraph.add_node ~src:!cur_src lg ~op ~preds ~len
  in
  let ns = G.nodes g in
  (* segments.(graph_node_id) = lnode id per segment *)
  let segments = Array.make (Array.length ns) [||] in
  let segs_of id = segments.(id) in
  (* Assemble an arbitrary [offset, offset+len) window of a graph node's
     value as gather pieces over its segments. *)
  let window_pieces src_id offset len =
    let src_segs = segs_of src_id in
    let pieces = ref [] in
    let dst_off = ref 0 in
    let pos = ref offset in
    while !dst_off < len do
      let s = !pos / dim in
      let off_in_seg = !pos mod dim in
      let src_seg = src_segs.(s) in
      let seg_length = (Lgraph.node lg src_seg).Lgraph.len in
      let take = min (len - !dst_off) (seg_length - off_in_seg) in
      pieces := (src_seg, off_in_seg, take, !dst_off) :: !pieces;
      dst_off := !dst_off + take;
      pos := !pos + take
    done;
    List.rev !pieces
  in
  let emit_gather pieces len =
    (* Deduplicate sources, build the piece array with src indices. *)
    let srcs = ref [] in
    let src_index id =
      match List.assoc_opt id !srcs with
      | Some k -> k
      | None ->
          let k = List.length !srcs in
          srcs := (id, k) :: !srcs;
          k
    in
    let parr =
      Array.of_list
        (List.map
           (fun (src_seg, src_off, piece_len, dst_off) ->
             { Lgraph.src = src_index src_seg; src_off; piece_len; dst_off })
           pieces)
    in
    let preds =
      let a = Array.make (List.length !srcs) 0 in
      List.iter (fun (id, k) -> a.(k) <- id) !srcs;
      a
    in
    add_node lg ~op:(L_gather parr) ~preds ~len
  in
  (* A gather that is exactly one full segment is the identity. *)
  let window src_id offset len =
    match window_pieces src_id offset len with
    | [ (src_seg, 0, l, 0) ] when l = len && (Lgraph.node lg src_seg).Lgraph.len = len ->
        src_seg
    | pieces -> emit_gather pieces len
  in
  Array.iter
    (fun (n : G.node) ->
      cur_src := n.id;
      let k = segment_count ~dim n.len in
      let out =
        match n.op with
        | G.Input name ->
            Array.init k (fun s ->
                add_node lg
                  ~op:(L_input { name; offset = s * dim })
                  ~preds:[||] ~len:(seg_len ~dim n.len s))
        | G.Const_vec data ->
            Array.init k (fun s ->
                let l = seg_len ~dim n.len s in
                add_node lg
                  ~op:(L_const (Array.sub data (s * dim) l))
                  ~preds:[||] ~len:l)
        | G.Mvm { matrix } ->
            let m = (G.matrix g matrix).data in
            let row_blocks = segment_count ~dim m.Tensor.rows in
            let col_blocks = segment_count ~dim m.Tensor.cols in
            let in_segs = segs_of n.preds.(0) in
            Array.init row_blocks (fun r ->
                let out_len = seg_len ~dim m.Tensor.rows r in
                let partials =
                  Array.init col_blocks (fun c ->
                      let slot =
                        Lgraph.add_slot lg ~matrix ~row_block:r ~col_block:c
                          ~source:m
                      in
                      add_node lg ~op:(L_mvm { slot })
                        ~preds:[| in_segs.(c) |] ~len:out_len)
                in
                Lgraph.add_sum ~src:!cur_src lg ~terms:partials ~len:out_len)
        | G.Binop op ->
            let a = segs_of n.preds.(0) and b = segs_of n.preds.(1) in
            Array.init k (fun s ->
                add_node lg ~op:(L_binop op) ~preds:[| a.(s); b.(s) |]
                  ~len:(seg_len ~dim n.len s))
        | G.Unop op ->
            let a = segs_of n.preds.(0) in
            Array.init k (fun s ->
                add_node lg ~op:(L_unop op) ~preds:[| a.(s) |]
                  ~len:(seg_len ~dim n.len s))
        | G.Immop op ->
            let a = segs_of n.preds.(0) in
            Array.init k (fun s ->
                add_node lg ~op:(L_immop op) ~preds:[| a.(s) |]
                  ~len:(seg_len ~dim n.len s))
        | G.Concat ->
            (* Segment s of the result windows across the concatenated
               sources. *)
            let sources = n.preds in
            let lens = Array.map (fun p -> ns.(p).len) sources in
            Array.init k (fun s ->
                let l = seg_len ~dim n.len s in
                let start = s * dim in
                (* Collect pieces across source boundaries. *)
                let pieces = ref [] in
                let dst_off = ref 0 in
                let pos = ref start in
                while !dst_off < l do
                  (* Find the source containing logical position !pos. *)
                  let rec locate i acc =
                    if !pos < acc + lens.(i) then (i, !pos - acc)
                    else locate (i + 1) (acc + lens.(i))
                  in
                  let src_i, off_in_src = locate 0 0 in
                  let take = min (l - !dst_off) (lens.(src_i) - off_in_src) in
                  List.iter
                    (fun (seg, so, pl, d) ->
                      pieces := (seg, so, pl, d + !dst_off) :: !pieces)
                    (window_pieces sources.(src_i) off_in_src take);
                  dst_off := !dst_off + take;
                  pos := !pos + take
                done;
                match List.rev !pieces with
                | [ (src_seg, 0, pl, 0) ]
                  when pl = l && (Lgraph.node lg src_seg).Lgraph.len = l ->
                    src_seg
                | pieces -> emit_gather pieces l)
        | G.Slice { offset } ->
            Array.init k (fun s ->
                let l = seg_len ~dim n.len s in
                window n.preds.(0) (offset + (s * dim)) l)
        | G.Output name ->
            let a = segs_of n.preds.(0) in
            Array.init k (fun s ->
                add_node lg
                  ~op:(L_output { name; offset = s * dim })
                  ~preds:[| a.(s) |] ~len:(seg_len ~dim n.len s))
      in
      segments.(n.id) <- out)
    ns;
  lg
