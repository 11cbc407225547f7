type lop =
  | L_input of { name : string; offset : int }
  | L_const of float array
  | L_mvm of { slot : int }
  | L_binop of Puma_graph.Graph.binop
  | L_unop of Puma_graph.Graph.unop
  | L_immop of Puma_graph.Graph.immop
  | L_gather of piece array
  | L_output of { name : string; offset : int }

and piece = { src : int; src_off : int; piece_len : int; dst_off : int }

type lnode = { id : int; op : lop; preds : int array; len : int; src : int }

type slot = {
  slot_id : int;
  matrix : int;
  row_block : int;
  col_block : int;
  image : string;
}

type sum = { terms : int array; adds : int array }
type sum_tree = Term of int | Plus of sum_tree * sum_tree

(* An append-only array, doubled when full, so indexing is O(1) while
   the graph grows. *)
type 'a grow = { mutable items : 'a array; mutable count : int }

let grow () = { items = [||]; count = 0 }

let push g x =
  if g.count = Array.length g.items then begin
    let a = Array.make (max 16 (2 * g.count)) x in
    Array.blit g.items 0 a 0 g.count;
    g.items <- a
  end;
  g.items.(g.count) <- x;
  g.count <- g.count + 1

let get g i =
  if i < 0 || i >= g.count then invalid_arg "index out of bounds"
  else g.items.(i)

let contents g = Array.sub g.items 0 g.count

type t = {
  dim : int;
  nodes : lnode grow;
  mutable sum_list : sum list;  (* reverse *)
  slots : slot grow;
  slot_index : (int * int * int, int) Hashtbl.t;
}

let create ~dim =
  {
    dim;
    nodes = grow ();
    sum_list = [];
    slots = grow ();
    slot_index = Hashtbl.create 64;
  }

let dim t = t.dim

let add_slot t ~matrix ~row_block ~col_block ~source =
  let key = (matrix, row_block, col_block) in
  match Hashtbl.find_opt t.slot_index key with
  | Some id -> id
  | None ->
      let image =
        Puma_util.Fixed.image_of_sub_block source ~row:(row_block * t.dim)
          ~col:(col_block * t.dim) ~dim:t.dim
      in
      let id = t.slots.count in
      push t.slots { slot_id = id; matrix; row_block; col_block; image };
      Hashtbl.add t.slot_index key id;
      id

let add_node ?(src = -1) t ~op ~preds ~len =
  Array.iter
    (fun p ->
      if p < 0 || p >= t.nodes.count then
        invalid_arg (Printf.sprintf "Lgraph.add_node: pred %d undefined" p))
    preds;
  if len <= 0 || len > t.dim then
    invalid_arg (Printf.sprintf "Lgraph.add_node: segment length %d not in 1..%d" len t.dim);
  let id = t.nodes.count in
  push t.nodes { id; op; preds; len; src };
  id

let nodes t = contents t.nodes

let add_sum ?src t ~terms ~len =
  let k = Array.length terms in
  if k = 0 then invalid_arg "Lgraph.add_sum: no terms";
  let acc = ref terms.(0) in
  let adds =
    Array.init (k - 1) (fun i ->
        acc :=
          add_node ?src t ~op:(L_binop Puma_graph.Graph.Add)
            ~preds:[| !acc; terms.(i + 1) |] ~len;
        !acc)
  in
  if k = 1 then terms.(0)
  else begin
    t.sum_list <- { terms = Array.copy terms; adds } :: t.sum_list;
    adds.(k - 2)
  end

(* Re-wire one sum's Add nodes into [tree], numbering the internal nodes
   in post-order: children before parents keeps every pred id below its
   consumer's, and the root lands on the last id, the one consumers of the
   sum already reference. *)
let rewire a (s : sum) tree =
  let next = ref 0 and leaves = ref [] in
  let rec go = function
    | Term id ->
        leaves := id :: !leaves;
        id
    | Plus (l, r) ->
        let l = go l in
        let r = go r in
        if !next >= Array.length s.adds then
          invalid_arg "Lgraph.reshape_sums: tree has too many terms";
        let id = s.adds.(!next) in
        incr next;
        a.(id) <- { (a.(id)) with preds = [| l; r |] };
        id
  in
  ignore (go tree);
  let sorted xs = List.sort compare xs in
  if sorted !leaves <> sorted (Array.to_list s.terms) then
    invalid_arg "Lgraph.reshape_sums: tree leaves are not the sum's terms"

let reshape_sums t f =
  let a = nodes t in
  List.iter (fun s -> rewire a s (f s.terms)) t.sum_list;
  t.nodes.items <- a

let slots t = contents t.slots
let node t id = get t.nodes id
let num_nodes t = t.nodes.count
let slot t id = get t.slots id
let num_slots t = t.slots.count

let consumers t =
  let cons = Array.make t.nodes.count [] in
  Array.iter
    (fun (n : lnode) ->
      Array.iter (fun p -> cons.(p) <- n.id :: cons.(p)) n.preds)
    (nodes t);
  Array.map (fun l -> Array.of_list (List.rev l)) cons

let levels t =
  let ns = nodes t in
  let lev = Array.make t.nodes.count 0 in
  Array.iter
    (fun (n : lnode) ->
      let m = Array.fold_left (fun acc p -> max acc (lev.(p) + 1)) 0 n.preds in
      lev.(n.id) <- m)
    ns;
  lev

let reverse_postorder t =
  let ns = nodes t in
  let visited = Array.make t.nodes.count false in
  let order = ref [] in
  let rec visit id =
    if not visited.(id) then begin
      visited.(id) <- true;
      Array.iter visit ns.(id).preds;
      order := id :: !order
    end
  in
  (* Depth-first from each sink in reverse creation order: values feeding a
     sink are fully consumed before unrelated producers start. *)
  let cons = consumers t in
  for id = t.nodes.count - 1 downto 0 do
    if Array.length cons.(id) = 0 then visit id
  done;
  for id = 0 to t.nodes.count - 1 do
    visit id
  done;
  Array.of_list (List.rev !order)

(* ---- Reference-dataflow extraction for translation validation ----

   Deliberately independent of Codegen: the binop/unop/immop encodings and
   the fixed-point immediate quantization are re-derived here, so a wrong
   mapping in the code generator refutes instead of reproducing on both
   sides of the Equiv check. Crossbar images are the slots' own, quantized
   once by [add_slot]: Equiv still refutes one placed on the wrong MVMU. *)

module E = Puma_analysis.Equiv

let ref_binop : Puma_graph.Graph.binop -> Puma_isa.Instr.alu_op = function
  | Puma_graph.Graph.Add -> Puma_isa.Instr.Add
  | Sub -> Sub
  | Mul -> Mul
  | Div -> Div
  | Min -> Min
  | Max -> Max

let ref_unop : Puma_graph.Graph.unop -> Puma_isa.Instr.alu_op = function
  | Puma_graph.Graph.Relu -> Puma_isa.Instr.Relu
  | Sigmoid -> Sigmoid
  | Tanh -> Tanh
  | Exp -> Exp
  | Log -> Log

let quantize f = Puma_util.Fixed.to_raw (Puma_util.Fixed.of_float f)

let to_reference ~matrix_name t =
  let slots = slots t in
  Array.map
    (fun (n : lnode) ->
      let op =
        match n.op with
        | L_input { name; offset } -> E.R_input { name; offset }
        | L_const data -> E.R_const (Array.map quantize data)
        | L_mvm { slot } ->
            let s = slots.(slot) in
            E.R_mvm
              {
                image = s.image;
                label =
                  Printf.sprintf "%s[r%d,c%d]" (matrix_name s.matrix)
                    s.row_block s.col_block;
              }
        | L_binop op -> E.R_alu (ref_binop op)
        | L_unop op -> E.R_alu (ref_unop op)
        | L_immop (Puma_graph.Graph.Add_imm f) ->
            E.R_alui { op = Puma_isa.Instr.Add; imm = quantize f }
        | L_immop (Puma_graph.Graph.Mul_imm f) ->
            E.R_alui { op = Puma_isa.Instr.Mul; imm = quantize f }
        | L_gather pieces ->
            E.R_gather
              (Array.map
                 (fun { src; src_off; piece_len; dst_off } ->
                   { E.src; src_off; piece_len; dst_off })
                 pieces)
        | L_output { name; offset } -> E.R_output { name; offset }
      in
      { E.op; preds = n.preds; len = n.len })
    (nodes t)
