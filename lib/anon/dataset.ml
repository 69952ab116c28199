open Mdp_prelude

type t = { attrs : Attribute.t list; cells : Value.t array array }

let check_attrs ~who attrs =
  match Listx.find_duplicate (fun (a : Attribute.t) -> a.name) attrs with
  | Some n -> invalid_arg (Printf.sprintf "Dataset.%s: duplicate attribute %s" who n)
  | None -> ()

let init ~attrs ~nrows ~f =
  check_attrs ~who:"init" attrs;
  if nrows < 0 then invalid_arg "Dataset.init: negative row count";
  let width = List.length attrs in
  let cells = Array.make nrows [||] in
  for row = 0 to nrows - 1 do
    let r = Array.make width Value.Suppressed in
    for col = 0 to width - 1 do
      r.(col) <- f ~row ~col
    done;
    cells.(row) <- r
  done;
  { attrs; cells }

let make ~attrs ~rows =
  check_attrs ~who:"make" attrs;
  let width = List.length attrs in
  List.iteri
    (fun i r ->
      if List.length r <> width then
        invalid_arg (Printf.sprintf "Dataset.make: row %d has width %d, expected %d"
                       i (List.length r) width))
    rows;
  { attrs; cells = Array.of_list (List.map Array.of_list rows) }

let attrs t = t.attrs
let nrows t = Array.length t.cells
let ncols t = List.length t.attrs
let get t ~row ~col = t.cells.(row).(col)
let row t i = Array.to_list t.cells.(i)
let rows t = Array.to_list (Array.map Array.to_list t.cells)

let col_index t name =
  match Listx.index_of (fun (a : Attribute.t) -> a.name = name) t.attrs with
  | Some i -> i
  | None -> raise Not_found

let column t name =
  let c = col_index t name in
  Array.to_list (Array.map (fun r -> r.(c)) t.cells)

let indices_where p t =
  List.concat (List.mapi (fun i a -> if p a then [ i ] else []) t.attrs)

let quasi_indices t = indices_where Attribute.is_quasi t

let map_column t name f =
  let c = col_index t name in
  let cells =
    Array.map
      (fun r ->
        let r' = Array.copy r in
        r'.(c) <- f r.(c);
        r')
      t.cells
  in
  { t with cells }

let drop_identifiers t =
  let keep =
    List.concat
      (List.mapi
         (fun i (a : Attribute.t) ->
           if a.kind = Attribute.Identifier then [] else [ i ])
         t.attrs)
  in
  {
    attrs = List.map (List.nth t.attrs) keep;
    cells = Array.map (fun r -> Array.of_list (List.map (Array.get r) keep)) t.cells;
  }

let pp ppf t =
  let table =
    Texttable.create ~header:(List.map (fun (a : Attribute.t) -> a.name) t.attrs)
  in
  Array.iter
    (fun r -> Texttable.add_row table (Array.to_list (Array.map Value.to_string r)))
    t.cells;
  Texttable.pp ppf table
