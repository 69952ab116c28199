module Metrics = Mdp_obs.Metrics

(* LRU with lazy-deleted access log: each access pushes (key, generation)
   onto [order]; an entry's current generation lives in the table, so
   stale log cells are recognised and skipped at eviction time. The log
   is compacted whenever it outgrows a small multiple of the capacity,
   which bounds memory for any access pattern — including the
   read-heavy steady state where no eviction would otherwise drain it. *)

type 'v entry = { mutable value : 'v; mutable gen : int }

type 'v t = {
  name : string;
  cap : int;
  tbl : (string, 'v entry) Hashtbl.t;
  order : (string * int) Queue.t;
  stale_cap : int;
  stale_tbl : (string, 'v entry) Hashtbl.t;
  stale_order : (string * int) Queue.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable stale_hits : int;
  mutable evictions : int;
  mu : Mutex.t;
}

let create ?(stale_cap = 0) ~name ~cap () =
  let cap = max 1 cap in
  {
    name;
    cap;
    tbl = Hashtbl.create (2 * cap);
    order = Queue.create ();
    stale_cap = max 0 stale_cap;
    stale_tbl = Hashtbl.create (max 1 stale_cap);
    stale_order = Queue.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    stale_hits = 0;
    evictions = 0;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let touch t order entry key =
  t.tick <- t.tick + 1;
  entry.gen <- t.tick;
  Queue.add (key, t.tick) order

let compact tbl order =
  let live = Queue.create () in
  Queue.iter
    (fun (key, gen) ->
      match Hashtbl.find_opt tbl key with
      | Some e when e.gen = gen -> Queue.add (key, gen) live
      | _ -> ())
    order;
  Queue.clear order;
  Queue.transfer live order

let maybe_compact t =
  if Queue.length t.order > (4 * t.cap) + 16 then compact t.tbl t.order;
  if
    t.stale_cap > 0
    && Queue.length t.stale_order > (4 * t.stale_cap) + 16
  then compact t.stale_tbl t.stale_order

(* Pop log cells until one matches its entry's current generation:
   that entry is the true LRU. *)
let rec evict_lru tbl order =
  match Queue.take_opt order with
  | None -> None
  | Some (key, gen) -> (
    match Hashtbl.find_opt tbl key with
    | Some e when e.gen = gen ->
      Hashtbl.remove tbl key;
      Some (key, e.value)
    | _ -> evict_lru tbl order)

let stale_put t key value =
  if t.stale_cap > 0 then begin
    (match Hashtbl.find_opt t.stale_tbl key with
    | Some e ->
      e.value <- value;
      touch t t.stale_order e key
    | None ->
      let e = { value; gen = 0 } in
      Hashtbl.add t.stale_tbl key e;
      touch t t.stale_order e key);
    while Hashtbl.length t.stale_tbl > t.stale_cap do
      ignore (evict_lru t.stale_tbl t.stale_order)
    done
  end

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        t.hits <- t.hits + 1;
        Metrics.incr (t.name ^ "/hits");
        touch t t.order e key;
        maybe_compact t;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        Metrics.incr (t.name ^ "/misses");
        None)

let put t key value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some e ->
        e.value <- value;
        touch t t.order e key
      | None ->
        let e = { value; gen = 0 } in
        Hashtbl.add t.tbl key e;
        touch t t.order e key);
      while Hashtbl.length t.tbl > t.cap do
        match evict_lru t.tbl t.order with
        | Some (k, v) ->
          t.evictions <- t.evictions + 1;
          Metrics.incr (t.name ^ "/evictions");
          stale_put t k v
        | None -> ()
      done;
      maybe_compact t)

(* A second-chance answer is not a plain hit: live answers count as
   [hits] (and refresh recency, same as [find]), stale-store answers as
   [stale_hits] — conflating them would make the hit ratio look healthy
   exactly when the cache is thrashing and degrading to stale serves. *)
let find_stale t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        t.hits <- t.hits + 1;
        Metrics.incr (t.name ^ "/hits");
        touch t t.order e key;
        maybe_compact t;
        Some e.value
      | None -> (
        match Hashtbl.find_opt t.stale_tbl key with
        | Some e ->
          t.stale_hits <- t.stale_hits + 1;
          Metrics.incr (t.name ^ "/stale_hits");
          Some e.value
        | None ->
          t.misses <- t.misses + 1;
          Metrics.incr (t.name ^ "/misses");
          None))

type stats = {
  len : int;
  cap : int;
  hits : int;
  misses : int;
  stale_hits : int;
  evictions : int;
  stale_len : int;
}

let stats t =
  locked t (fun () ->
      {
        len = Hashtbl.length t.tbl;
        cap = t.cap;
        hits = t.hits;
        misses = t.misses;
        stale_hits = t.stale_hits;
        evictions = t.evictions;
        stale_len = Hashtbl.length t.stale_tbl;
      })

let stats_json t =
  let s = stats t in
  Mdp_prelude.Json.Obj
    [
      ("len", Mdp_prelude.Json.int s.len);
      ("cap", Mdp_prelude.Json.int s.cap);
      ("hits", Mdp_prelude.Json.int s.hits);
      ("misses", Mdp_prelude.Json.int s.misses);
      ("stale_hits", Mdp_prelude.Json.int s.stale_hits);
      ("evictions", Mdp_prelude.Json.int s.evictions);
      ("stale_len", Mdp_prelude.Json.int s.stale_len);
    ]
