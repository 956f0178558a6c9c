type state = Pending | Active | Departed

type t = {
  id : int;
  task_key : int;
  mutable state : state;
  mutable epoch : int;
  mutable root_resident : bool;
  mutable last_active : int;
  mutable inflight : int;
  mutable peak_inflight : int;
  mutable admitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable cancelled : int;
  mutable cpu_fallbacks : int;
  mutable root_installs : int;
  latencies : Samples.t;
}

type registry = t array

let make_registry ~tenants ~instances =
  Array.init tenants (fun id ->
      {
        id;
        task_key = instances + id;
        state = Pending;
        epoch = 0;
        root_resident = false;
        last_active = 0;
        inflight = 0;
        peak_inflight = 0;
        admitted = 0;
        completed = 0;
        rejected = 0;
        cancelled = 0;
        cpu_fallbacks = 0;
        root_installs = 0;
        latencies = Samples.create ();
      })

let record_latency t lat =
  t.completed <- t.completed + 1;
  Samples.push t.latencies lat

let teardown checker t =
  let evicted = Capchecker.Checker.evict_task checker ~task:t.task_key in
  t.root_resident <- false;
  t.epoch <- t.epoch + 1;
  t.state <- Departed;
  evicted
