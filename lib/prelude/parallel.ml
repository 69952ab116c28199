(* Contiguous-chunk fan-out over OCaml 5 domains. The calling domain
   always works the first chunk itself, so [jobs = 1] (or a single
   chunk) never spawns: the sequential path stays allocation- and
   domain-free, which is what makes a cheap small-input fallback
   possible at the call sites. *)

let map_chunks ~jobs n f =
  if n <= 0 then []
  else
    let jobs = max 1 (min jobs n) in
    if jobs = 1 then [ f 0 n ]
    else begin
      let bound k = k * n / jobs in
      let workers =
        List.init (jobs - 1) (fun k ->
            let lo = bound (k + 1) and hi = bound (k + 2) in
            Domain.spawn (fun () -> f lo hi))
      in
      (* Join every worker before re-raising, so no domain outlives
         the call; the first failure in chunk order wins. *)
      let capture g =
        try Ok (g ()) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let first = capture (fun () -> f 0 (bound 1)) in
      let rest = List.map (fun d -> capture (fun () -> Domain.join d)) workers in
      List.map
        (function
          | Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        (first :: rest)
    end
