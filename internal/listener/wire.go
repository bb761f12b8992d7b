package listener

import (
	"encoding/json"
	"net/http"
	"sync"

	"nostop/internal/jsonwire"
)

// Wire codecs for the replies a remote controller polls every interval.
// The encoders write exactly what an indented json.Encoder writes, trailing
// newline included: the service soak's identity digest hashes these
// bytes. The decoders read that canonical form back and hand anything else
// to json.Unmarshal, so values and error texts match encoding/json's by
// construction.

// AppendStatus appends st as GET /status renders it.
func AppendStatus(buf []byte, st Status) ([]byte, error) {
	w := jsonwire.NewWriter(buf, jsonwire.Indented)
	w.BeginObject()
	w.Int("batches", int64(st.Batches))
	w.Int("batchIntervalMs", st.BatchIntervalMs)
	w.Int("numExecutors", int64(st.Executors))
	w.Int("queueLength", int64(st.QueueLength))
	w.Int("lagRecords", st.LagRecords)
	w.Float("inputRateMean", st.RateMean)
	w.Float("inputRateStd", st.RateStd)
	w.Float("meanProcessingMs", st.MeanProcMs)
	w.Float("meanEndToEndMs", st.MeanE2EMs)
	w.Float("p95EndToEndMs", st.P95E2EMs)
	w.EndObject()
	return w.Line()
}

// longestReport is the longest rendering one report can add to a /batches
// array: its separating comma and line break, every integer at the 20
// characters of math.MinInt64, the float at the 25 of the longest number
// AppendFloat writes (17 significant digits, below 1e-5 in 'f' form, and
// negative), and both booleans false.
const longestReport = `,
  {
    "batchId": -9223372036854775808,
    "numRecords": -9223372036854775808,
    "batchIntervalMs": -9223372036854775808,
    "numExecutors": -9223372036854775808,
    "submissionTime": -0.0000012345678901234567,
    "processingDelayMs": -9223372036854775808,
    "schedulingDelayMs": -9223372036854775808,
    "totalDelayMs": -9223372036854775808,
    "endToEndDelayMs": -9223372036854775808,
    "firstAfterReconfig": false,
    "faultActive": false,
    "queueLength": -9223372036854775808
  }`

// AppendReports appends reports as GET /batches renders them: null for a
// nil slice, [] for an empty one. It grows buf once, to room for every
// report at its longest, rather than doubling its way through a
// whole-history reply.
func AppendReports(buf []byte, reports []BatchReport) ([]byte, error) {
	// len("null\n") covers the brackets or null and the final newline.
	if need := len(reports)*len(longestReport) + len("null\n"); cap(buf)-len(buf) < need {
		buf = append(make([]byte, 0, len(buf)+need), buf...)
	}
	w := jsonwire.NewWriter(buf, jsonwire.Indented)
	if reports == nil {
		w.Null()
		return w.Line()
	}
	w.BeginArray()
	for i := range reports {
		writeReport(&w, &reports[i])
	}
	w.EndArray()
	return w.Line()
}

// appendReport appends one report as GET /batches/latest renders it.
func appendReport(buf []byte, r *BatchReport) ([]byte, error) {
	w := jsonwire.NewWriter(buf, jsonwire.Indented)
	writeReport(&w, r)
	return w.Line()
}

func writeReport(w *jsonwire.Writer, r *BatchReport) {
	w.BeginObject()
	w.Int("batchId", r.BatchID)
	w.Int("numRecords", r.NumRecords)
	w.Int("batchIntervalMs", r.BatchIntervalMs)
	w.Int("numExecutors", int64(r.Executors))
	w.Float("submissionTime", r.SubmissionTimeSec)
	w.Int("processingDelayMs", r.ProcessingDelayMs)
	w.Int("schedulingDelayMs", r.SchedulingDelayMs)
	w.Int("totalDelayMs", r.TotalDelayMs)
	w.Int("endToEndDelayMs", r.EndToEndDelayMs)
	w.Bool("firstAfterReconfig", r.FirstAfterChange)
	w.Bool("faultActive", r.FaultActive)
	w.Int("queueLength", int64(r.QueueLength))
	w.EndObject()
}

// DecodeStatus fills st from a /status reply, as json.Unmarshal(data, st)
// does.
func DecodeStatus(data []byte, st *Status) error {
	v := *st
	s := jsonwire.NewScanner(data)
	s.BeginObject()
	for s.NextKey() {
		switch string(s.Key()) {
		case "batches":
			v.Batches = s.Int()
		case "batchIntervalMs":
			v.BatchIntervalMs = s.Int64()
		case "numExecutors":
			v.Executors = s.Int()
		case "queueLength":
			v.QueueLength = s.Int()
		case "lagRecords":
			v.LagRecords = s.Int64()
		case "inputRateMean":
			v.RateMean = s.Float64()
		case "inputRateStd":
			v.RateStd = s.Float64()
		case "meanProcessingMs":
			v.MeanProcMs = s.Float64()
		case "meanEndToEndMs":
			v.MeanE2EMs = s.Float64()
		case "p95EndToEndMs":
			v.P95E2EMs = s.Float64()
		default:
			s.Fail()
		}
	}
	if !s.Done() {
		return json.Unmarshal(data, st)
	}
	*st = v
	return nil
}

// DecodeReports appends the reports of a /batches reply to dst, as
// json.Unmarshal into a fresh slice followed by append would. On error dst
// comes back unchanged.
func DecodeReports(data []byte, dst []BatchReport) ([]BatchReport, error) {
	out, ok := decodeReports(data, dst)
	if ok {
		return out, nil
	}
	var reports []BatchReport
	if err := json.Unmarshal(data, &reports); err != nil {
		return dst, err
	}
	return append(dst, reports...), nil
}

func decodeReports(data []byte, dst []BatchReport) ([]BatchReport, bool) {
	s := jsonwire.NewScanner(data)
	if s.Null() {
		return dst, s.Done()
	}
	out := dst
	s.BeginArray()
	for s.NextElement() {
		var r BatchReport
		s.BeginObject()
		for s.NextKey() {
			switch string(s.Key()) {
			case "batchId":
				r.BatchID = s.Int64()
			case "numRecords":
				r.NumRecords = s.Int64()
			case "batchIntervalMs":
				r.BatchIntervalMs = s.Int64()
			case "numExecutors":
				r.Executors = s.Int()
			case "submissionTime":
				r.SubmissionTimeSec = s.Float64()
			case "processingDelayMs":
				r.ProcessingDelayMs = s.Int64()
			case "schedulingDelayMs":
				r.SchedulingDelayMs = s.Int64()
			case "totalDelayMs":
				r.TotalDelayMs = s.Int64()
			case "endToEndDelayMs":
				r.EndToEndDelayMs = s.Int64()
			case "firstAfterReconfig":
				r.FirstAfterChange = s.Bool()
			case "faultActive":
				r.FaultActive = s.Bool()
			case "queueLength":
				r.QueueLength = s.Int()
			default:
				s.Fail()
			}
		}
		out = append(out, r)
	}
	if !s.Done() {
		return dst, false
	}
	return out, true
}

// replyBufs recycles reply buffers across handler calls, which may run on
// concurrent server goroutines.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// jsonContentType is the Content-Type value of every reply. reply assigns
// it into the header map instead of allocating a slice per reply; nothing
// mutates it (http.Error and Header.Set replace the slice).
var jsonContentType = []string{"application/json"}

// reply serves the body encode appends to a pooled buffer as JSON. Like
// the json.Encoder it replaces, it answers 500 with the error text when
// encoding fails (a NaN in /status) or the write does.
func reply(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	bp := replyBufs.Get().(*[]byte)
	body, err := encode((*bp)[:0])
	w.Header()["Content-Type"] = jsonContentType
	if err == nil {
		_, err = w.Write(body)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	if cap(body) <= 1<<16 { // a whole-history reply is not worth keeping
		*bp = body
		replyBufs.Put(bp)
	}
}
