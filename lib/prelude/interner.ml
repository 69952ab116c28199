type t = {
  by_name : (string, int) Hashtbl.t;
  mutable by_id : string array;
  mutable next : int;
}

let create () = { by_name = Hashtbl.create 16; by_id = Array.make 16 ""; next = 0 }

let grow t =
  if t.next >= Array.length t.by_id then begin
    let bigger = Array.make (2 * Array.length t.by_id) "" in
    Array.blit t.by_id 0 bigger 0 t.next;
    t.by_id <- bigger
  end

let intern t s =
  match Hashtbl.find_opt t.by_name s with
  | Some id -> id
  | None ->
    let id = t.next in
    grow t;
    t.by_id.(id) <- s;
    Hashtbl.add t.by_name s id;
    t.next <- id + 1;
    id

let find t s = Hashtbl.find_opt t.by_name s

let find_exn t s =
  match find t s with Some id -> id | None -> raise Not_found

let name t id =
  if id < 0 || id >= t.next then invalid_arg "Interner.name";
  t.by_id.(id)

let size t = t.next

let of_list l =
  let t = create () in
  List.iter (fun s -> ignore (intern t s)) l;
  t
