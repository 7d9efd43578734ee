package main

import (
	"sort"
	"time"
)

// runSpans is one run's recorded spans.
type runSpans struct {
	submit, create, pop, begin, finish, await *span
}

// layerStats is what the traced run's spans say about each layer.
type layerStats struct {
	submitSelf, create, begin, finish []float64 // µs
	queueWait                         []float64 // ms
	evict                             []float64 // µs
	evicted                           int
	get                               []float64 // µs
	list                              []float64 // ms
	awaitWake                         []float64 // µs
	execute, serial, parallel, other  []float64 // ms
	speedup                           []float64
	dispatchBusy, evictBusy           time.Duration // inside the window
	runs                              int           // runs finished inside the window
	derived                           []span        // run, dispatch.queue, dispatch.run, run.execute
}

// analyze derives per-layer figures from spans recorded during window.
func analyze(spans []span, window interval) layerStats {
	var ls layerStats
	byRun := make(map[string]*runSpans)
	of := func(id string) *runSpans {
		r, ok := byRun[id]
		if !ok {
			r = &runSpans{}
			byRun[id] = r
		}
		return r
	}
	for i := range spans {
		s := &spans[i]
		d := s.End.Sub(s.Start)
		switch s.Name {
		case spanSubmit:
			of(s.Run).submit = s
		case spanCreate:
			of(s.Run).create = s
			ls.create = append(ls.create, us(d))
		case spanDispatched:
			of(s.Run).pop = s
		case spanBegin:
			of(s.Run).begin = s
			ls.begin = append(ls.begin, us(d))
		case spanFinish:
			of(s.Run).finish = s
			ls.finish = append(ls.finish, us(d))
		case spanAwait:
			of(s.Run).await = s
		case spanEvict:
			ls.evict = append(ls.evict, us(d))
			ls.evicted += s.N
			if c, ok := clip(interval{s.Start, s.End}, window); ok {
				ls.evictBusy += c.end.Sub(c.start)
			}
		case spanGet:
			ls.get = append(ls.get, us(d))
		case spanList:
			ls.list = append(ls.list, ms(d))
		}
	}
	ids := make([]string, 0, len(byRun))
	for id := range byRun {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := byRun[id]
		if r.submit != nil && r.create != nil {
			parent := interval{r.submit.Start, r.submit.End}
			ls.submitSelf = append(ls.submitSelf, us(selfTime(parent, []interval{{r.create.Start, r.create.End}})))
		}
		if r.create != nil && r.pop != nil {
			ls.queueWait = append(ls.queueWait, ms(r.pop.Start.Sub(r.create.End)))
			ls.derived = append(ls.derived, span{Name: spanQueue, Parent: spanParent[spanQueue], Run: id, Start: r.create.End, End: r.pop.Start})
		}
		if r.pop != nil && r.finish != nil {
			busy := interval{r.pop.Start, r.finish.End}
			if c, ok := clip(busy, window); ok {
				ls.dispatchBusy += c.end.Sub(c.start)
			}
			ls.derived = append(ls.derived, span{Name: spanDispatch, Parent: spanParent[spanDispatch], Run: id, Start: busy.start, End: busy.end})
		}
		if r.begin != nil && r.finish != nil {
			exec := r.finish.Start.Sub(r.begin.End)
			ls.execute = append(ls.execute, ms(exec))
			ls.derived = append(ls.derived, span{Name: spanExecute, Parent: spanParent[spanExecute], Run: id, Start: r.begin.End, End: r.finish.Start})
			if res := r.finish.Result; res != nil {
				ls.serial = append(ls.serial, res.SerialMillis)
				ls.parallel = append(ls.parallel, res.ParallelMillis)
				ls.other = append(ls.other, ms(exec)-res.SerialMillis-res.ParallelMillis)
				if res.Speedup > 0 {
					ls.speedup = append(ls.speedup, res.Speedup)
				}
			}
		}
		if r.finish != nil && !r.finish.End.Before(window.start) && !r.finish.End.After(window.end) {
			ls.runs++
		}
		// Await wakes when Finish closes the run's done channel, which a
		// durable store does before its record is on disk, so the wake is
		// timed from the Finish call rather than its return.
		if r.await != nil && r.finish != nil && r.await.Start.Before(r.finish.Start) {
			ls.awaitWake = append(ls.awaitWake, us(r.await.End.Sub(r.finish.Start)))
		}
		if r.submit != nil && r.await != nil {
			ls.derived = append(ls.derived, span{Name: spanRun, Run: id, Start: r.submit.Start, End: r.await.End})
		}
	}
	return ls
}
