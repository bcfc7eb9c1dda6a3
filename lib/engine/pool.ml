module Obs = Soctam_obs.Obs

(* A queued task runs its work outside the lock and returns its
   completion, which runs under [mutex]. *)
type t = {
  num_domains : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  batch_done : Condition.t;
  queue : (unit -> unit -> unit) Queue.t;
  capacity : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  mutable max_workers : int;
  mutable busy : int;  (* domains between taking a task and completing it *)
}

(* Entered and left with [t.mutex] held. *)
let run_task t task =
  t.busy <- t.busy + 1;
  Mutex.unlock t.mutex;
  let complete = task () in
  Mutex.lock t.mutex;
  (* Free before the completion wakes the caller: a caller that queues
     its next task at once finds this worker free instead of spawning
     another. *)
  t.busy <- t.busy - 1;
  complete ()

(* Workers drain the queue before honouring [stopped], so a shutdown
   never abandons submitted tasks. *)
let rec worker t =
  match Queue.take_opt t.queue with
  | Some task ->
      run_task t task;
      worker t
  | None when t.stopped -> Mutex.unlock t.mutex
  | None ->
      Condition.wait t.not_empty t.mutex;
      worker t

(* Under [t.mutex], before a task is queued: spawn a worker when the
   queue already holds as many tasks as there are free workers, so the
   task would otherwise wait. A domain the runtime refuses (OCaml 5.1
   allows 128) caps the pool at the workers it has. *)
let grow t =
  let spawned = List.length t.workers in
  if Queue.length t.queue >= spawned - t.busy && spawned < t.max_workers then
    match
      Domain.spawn (fun () ->
          Mutex.lock t.mutex;
          worker t)
    with
    | d -> t.workers <- d :: t.workers
    | exception _ -> t.max_workers <- spawned

let create ?num_domains () =
  let num_domains =
    match num_domains with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  if num_domains < 1 then invalid_arg "Pool.create: num_domains < 1";
  { num_domains;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    batch_done = Condition.create ();
    queue = Queue.create ();
    capacity = max 32 (4 * num_domains);
    stopped = false;
    workers = [];
    max_workers = num_domains - 1;
    busy = 0 }

let num_domains t = t.num_domains

let workers t = Mutex.protect t.mutex (fun () -> List.length t.workers)

let map t ~f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.num_domains = 1 || n = 1 then begin
    if t.stopped then invalid_arg "Pool.map: pool shut down";
    Array.map f arr
  end
  else begin
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.map: pool shut down"
    end;
    let results = Array.make n None in
    (* Guarded by [t.mutex]: completion count and the winning (lowest
       task index) exception. Each [results] slot is written by exactly
       one task and read only after the count reaches zero, so the
       mutex provides the needed happens-before edge. *)
    let remaining = ref n in
    let first_error = ref None in
    let task i =
      (* The queue-wait span opens at submission (caller's clock read)
         and closes on whichever domain dequeues the task, so its
         duration is the time spent waiting in the bounded queue. *)
      let queued = Obs.start () in
      fun () ->
        Obs.finish "pool.queue_wait" queued;
        let error =
          match Obs.span "pool.task" (fun () -> f arr.(i)) with
          | v ->
              results.(i) <- Some v;
              None
          | exception e -> Some e
        in
        fun () ->
          (match (error, !first_error) with
          | Some _, Some (j, _) when j < i -> ()
          | Some e, _ -> first_error := Some (i, e)
          | None, _ -> ());
          decr remaining;
          if !remaining = 0 then Condition.broadcast t.batch_done
    in
    (* When the bounded queue is full the caller runs a task itself
       instead of blocking, which also rules out deadlock. *)
    for i = 0 to n - 1 do
      while Queue.length t.queue >= t.capacity do
        run_task t (Queue.pop t.queue)
      done;
      grow t;
      Queue.push (task i) t.queue;
      Condition.signal t.not_empty
    done;
    (* The caller joins the crew until the queue drains, then waits for
       in-flight tasks on other domains. *)
    while not (Queue.is_empty t.queue) do
      run_task t (Queue.pop t.queue)
    done;
    while !remaining > 0 do
      Condition.wait t.batch_done t.mutex
    done;
    Mutex.unlock t.mutex;
    match !first_error with
    | Some (_, e) -> raise e
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

let run t f =
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: pool shut down"
  end;
  grow t;
  if t.max_workers = 0 then begin
    Mutex.unlock t.mutex;
    f ()
  end
  else begin
    let result = ref None and delivered = Condition.create () in
    Queue.push
      (fun () ->
        let r = match f () with v -> Ok v | exception e -> Error e in
        fun () ->
          result := Some r;
          Condition.signal delivered)
      t.queue;
    Condition.signal t.not_empty;
    while Option.is_none !result do
      Condition.wait delivered t.mutex
    done;
    Mutex.unlock t.mutex;
    match Option.get !result with Ok v -> v | Error e -> raise e
  end

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    t.stopped <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers
  end

let with_pool ?num_domains f =
  let t = create ?num_domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
