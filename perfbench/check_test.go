package main

import "testing"

func TestCheckRank(t *testing.T) {
	good := `{"consumer":"c","ranked":[{"service":"s002","score":0.9},{"service":"s001","score":0.9},{"service":"s003","score":0.2}]}`
	if err := checkRank([]byte(good), 3, 16); err != nil {
		t.Errorf("good answer rejected: %v", err)
	}
	if err := checkRank([]byte(good), 20, 3); err != nil {
		t.Errorf("n past the catalog rejected: %v", err)
	}
	if err := checkRank([]byte(good), 5, 16); err == nil {
		t.Error("3 entries accepted for n=5 over 16 services")
	}
	bad := `{"ranked":[{"service":"s001","score":0.2},{"service":"s002","score":0.9}]}`
	if err := checkRank([]byte(bad), 2, 16); err == nil {
		t.Error("ascending scores accepted")
	}
}

func TestCheckCompute(t *testing.T) {
	cases := []struct {
		body string
		ok   bool
	}{
		{`{"scores":[{"service":"s001","known":true}],"stats":{"residual":1e-10}}`, true},
		{`{"scores":[{"service":"s001","known":true}],"stats":{"residual":1e-6}}`, false},
		{`{"scores":[{"service":"s001","known":false}],"stats":{"residual":0}}`, false},
		{`{"scores":[{"service":"s001","known":true}],"stats":null}`, false},
		{`{"scores":[],"stats":{"residual":0}}`, false},
	}
	for _, c := range cases {
		if err := checkCompute([]byte(c.body), 1); (err == nil) != c.ok {
			t.Errorf("checkCompute(%s) = %v, want ok=%v", c.body, err, c.ok)
		}
	}
}
