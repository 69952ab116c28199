let group_by ~key l =
  let rec insert k x = function
    | [] -> [ (k, [ x ]) ]
    | (k', xs) :: rest when k' = k -> (k', x :: xs) :: rest
    | pair :: rest -> pair :: insert k x rest
  in
  let grouped = List.fold_left (fun acc x -> insert (key x) x acc) [] l in
  List.map (fun (k, xs) -> (k, List.rev xs)) grouped

let dedup l =
  let rec go seen = function
    | [] -> []
    | x :: rest -> if List.mem x seen then go seen rest else x :: go (x :: seen) rest
  in
  go [] l

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sum_byf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let max_byf f l = List.fold_left (fun acc x -> Float.max acc (f x)) 0.0 l

let count p l = List.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 l

let index_of p l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 l

let find_duplicate f l =
  let rec go seen = function
    | [] -> None
    | x :: rest ->
      let k = f x in
      if List.mem k seen then Some k else go (k :: seen) rest
  in
  go [] l
