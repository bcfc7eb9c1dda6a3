module Obs = Soctam_obs.Obs

type t = {
  num_domains : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  batch_done : Condition.t;
  queue : (unit -> unit) Queue.t;
  capacity : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

(* Workers drain the queue before honouring [stopped], so a shutdown
   never abandons submitted tasks. *)
let rec worker t =
  Mutex.lock t.mutex;
  let rec await () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.stopped then None
    else begin
      Condition.wait t.not_empty t.mutex;
      await ()
    end
  in
  match await () with
  | None -> Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker t

let create ?num_domains () =
  let num_domains =
    match num_domains with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  if num_domains < 1 then invalid_arg "Pool.create: num_domains < 1";
  let t =
    { num_domains;
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      capacity = max 32 (4 * num_domains);
      stopped = false;
      workers = [] }
  in
  if num_domains > 1 then
    t.workers <-
      List.init (num_domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let num_domains t = t.num_domains

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
    Mutex.unlock t.mutex;
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
      (match Obs.span "pool.task" (fun () -> f arr.(i)) with
      | v -> results.(i) <- Some v
      | exception e ->
          Mutex.lock t.mutex;
          (match !first_error with
          | Some (j, _) when j < i -> ()
          | _ -> first_error := Some (i, e));
          Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.mutex
    in
    (* Submit; when the bounded queue is full the caller runs a task
       itself instead of blocking, which also rules out deadlock. *)
    for i = 0 to n - 1 do
      Mutex.lock t.mutex;
      while Queue.length t.queue >= t.capacity do
        let pending = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        pending ();
        Mutex.lock t.mutex
      done;
      Queue.push (task i) t.queue;
      Condition.signal t.not_empty;
      Mutex.unlock t.mutex
    done;
    (* The caller joins the crew until the queue drains, then waits for
       in-flight tasks on other domains. *)
    let rec help () =
      Mutex.lock t.mutex;
      if not (Queue.is_empty t.queue) then begin
        let pending = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        pending ();
        help ()
      end
      else begin
        while !remaining > 0 do
          Condition.wait t.batch_done t.mutex
        done;
        Mutex.unlock t.mutex
      end
    in
    help ();
    match !first_error with
    | Some (_, e) -> raise e
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

let submit t task =
  (* No result channel: a raising task would otherwise unwind a worker
     domain's loop and silently shrink the pool. Contain it and leave a
     metric breadcrumb instead. *)
  let task () = try task () with _ -> Obs.incr "pool.submit_exn" in
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool shut down"
  end
  else if t.workers = [] then begin
    (* A one-domain pool has nobody to hand the task to; run it inline
       so submit never silently parks work on a dead queue. *)
    Mutex.unlock t.mutex;
    task ()
  end
  else begin
    Queue.push task t.queue;
    Condition.signal t.not_empty;
    Mutex.unlock t.mutex
  end

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    t.stopped <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?num_domains f =
  let t = create ?num_domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
