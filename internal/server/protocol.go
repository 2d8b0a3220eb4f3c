package server

import (
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
)

// maxQueryBytes bounds a POSTed body, raw query or form alike; a longer
// one is refused with 413, never cut short and run.
const maxQueryBytes = 1 << 20

// protocolRequest is one parsed SPARQL-protocol operation.
type protocolRequest struct {
	query  string
	label  string // optional caller-supplied label for the slow log
	format resultFormat
}

// parseProtocolRequest implements the SPARQL 1.1 Protocol query operation:
//
//	GET  /sparql?query=...
//	POST /sparql  (application/x-www-form-urlencoded, query=...)
//	POST /sparql  (application/sparql-query, raw query body)
//
// plus an optional "label" parameter naming the query for the slow log
// (the NPD mix sends q1..q21 so captures stay attributable).
func parseProtocolRequest(w http.ResponseWriter, r *http.Request) (*protocolRequest, error) {
	req := &protocolRequest{format: negotiateFormat(r.Header.Get("Accept"))}
	switch r.Method {
	case http.MethodGet:
		req.query = r.URL.Query().Get("query")
		req.label = r.URL.Query().Get("label")
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBytes)
		ct := r.Header.Get("Content-Type")
		mt, _, err := mime.ParseMediaType(ct)
		if ct != "" && err != nil {
			return nil, fmt.Errorf("malformed Content-Type %q", ct)
		}
		switch mt {
		case "application/sparql-query":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return nil, fmt.Errorf("reading query body: %w", err)
			}
			req.query = string(body)
			req.label = r.URL.Query().Get("label")
		case "application/x-www-form-urlencoded", "":
			if err := r.ParseForm(); err != nil {
				return nil, fmt.Errorf("parsing form: %w", err)
			}
			req.query = r.PostForm.Get("query")
			req.label = r.PostForm.Get("label")
			if req.label == "" {
				req.label = r.URL.Query().Get("label")
			}
		default:
			return nil, fmt.Errorf("unsupported Content-Type %q", mt)
		}
	default:
		return nil, &methodError{r.Method}
	}
	if strings.TrimSpace(req.query) == "" {
		return nil, fmt.Errorf("missing query parameter")
	}
	return req, nil
}

// methodError reports a request method the query operation does not
// serve; it is answered with 405 and an Allow header.
type methodError struct{ method string }

func (e *methodError) Error() string {
	return fmt.Sprintf("method %s not allowed (use GET or POST)", e.method)
}

// resultFormat is a negotiated result serialization.
type resultFormat int

const (
	formatJSON resultFormat = iota // application/sparql-results+json
	formatTSV                      // text/tab-separated-values
)

func (f resultFormat) contentType() string {
	if f == formatTSV {
		return "text/tab-separated-values; charset=utf-8"
	}
	return "application/sparql-results+json"
}

// negotiateFormat picks the result serialization from an Accept header.
// SPARQL-JSON is the default and the wildcard answer; TSV is chosen only
// when asked for explicitly. A full q-value parse buys nothing here — the
// protocol clients we serve (and the W3C test harnesses) send one
// concrete media type.
func negotiateFormat(accept string) resultFormat {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "text/tab-separated-values":
			return formatTSV
		case "application/sparql-results+json", "application/json", "*/*", "":
			return formatJSON
		}
	}
	return formatJSON
}
