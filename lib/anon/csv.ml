open Mdp_prelude

let parse_cell s =
  let s = String.trim s in
  if s = "*" then Value.Suppressed
  else
    match int_of_string_opt s with
    | Some i -> Value.Int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Value.Float f
      | None -> (
        match String.index_opt s '-' with
        | Some i when i > 0 -> (
          let lo = String.sub s 0 i
          and hi = String.sub s (i + 1) (String.length s - i - 1) in
          match (float_of_string_opt lo, float_of_string_opt hi) with
          | Some lo, Some hi when lo < hi -> Value.Interval (lo, hi)
          | _ -> Value.Str s)
        | _ -> Value.Str s))

(* Header names key the dataset's attributes, so they must be non-empty
   and distinct; every name [kinds] assigns must be among them, with one
   kind. *)
let check_header ~kinds names =
  if List.mem "" names then Error "header: empty column name"
  else
    match Listx.find_duplicate Fun.id names with
    | Some n -> Error (Printf.sprintf "header: duplicate column %s" n)
    | None -> (
      match List.find_opt (fun (n, _) -> not (List.mem n names)) kinds with
      | Some (n, _) -> Error (Printf.sprintf "header: no column %s" n)
      | None -> (
        match
          List.find_opt
            (fun (n, k) -> List.exists (fun (n', k') -> n = n' && k <> k') kinds)
            kinds
        with
        | Some (n, _) -> Error (Printf.sprintf "kinds: column %s given two kinds" n)
        | None -> Ok ()))

let parse ~kinds text =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  match lines with
  | [] -> Error "empty CSV"
  | header :: rows ->
    let names = List.map String.trim (String.split_on_char ',' header) in
    Result.bind (check_header ~kinds names) @@ fun () ->
    let attrs =
      List.map
        (fun name ->
          Attribute.make ~name
            ~kind:
              (Option.value
                 (List.assoc_opt name kinds)
                 ~default:Attribute.Insensitive))
        names
    in
    let width = List.length names in
    let rec build acc i = function
      | [] -> Ok (Dataset.make ~attrs ~rows:(List.rev acc))
      | row :: rest ->
        let cells = List.map parse_cell (String.split_on_char ',' row) in
        if List.length cells <> width then
          Error (Printf.sprintf "row %d: expected %d cells, found %d" i width
                   (List.length cells))
        else build (cells :: acc) (i + 1) rest
    in
    build [] 1 rows

let render ds =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat "," (List.map (fun (a : Attribute.t) -> a.name) (Dataset.attrs ds)));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," (List.map Value.to_string row));
      Buffer.add_char buf '\n')
    (Dataset.rows ds);
  Buffer.contents buf
